let of_suffix_array s sa =
  let n = String.length s in
  (* SA(s ^ "$") is [n] followed by SA(s): the sentinel suffix is smallest
     and the remaining suffixes keep their relative order. *)
  let l = Bytes.create (n + 1) in
  Bytes.set l 0 (if n = 0 then Dna.Alphabet.sentinel else s.[n - 1]);
  for i = 0 to n - 1 do
    let h = sa.(i) in
    Bytes.set l (i + 1) (if h = 0 then Dna.Alphabet.sentinel else s.[h - 1])
  done;
  Bytes.unsafe_to_string l

let of_text s = of_suffix_array s (Suffix.Suffix_array.build s)

(* SA-IS straight over the 2-bit lanes: the same level code as
   [Suffix_array.build], reading the packed buffer at level 0. *)
module Packed_sa = Suffix.Suffix_array.Make (struct
  type t = Packed_text.t

  let get = Packed_text.unsafe_get
end)

let suffix_array pt = Packed_sa.build pt ~len:(Packed_text.length pt) ~sigma:4

(* The packed BWT skips the sentinel row entirely: lane j holds the
   (j < sentinel_row ? j : j+1)-th BWT character.  Row 0 of the matrix of
   s^"$" starts with the sentinel suffix, so its L-character is s[n-1];
   the sentinel itself appears in L at the row of the suffix starting at
   position 0, i.e. row 1 + (index of 0 in sa). *)
let packed_of_suffix_array pt sa =
  let n = Packed_text.length pt in
  if n = 0 then (Packed_text.empty, 0)
  else begin
    let sentinel_row = ref 0 in
    Array.iteri (fun i h -> if h = 0 then sentinel_row := i + 1) sa;
    let sentinel_row = !sentinel_row in
    let bwt =
      Packed_text.init n (fun j ->
          let row = if j < sentinel_row then j else j + 1 in
          if row = 0 then Packed_text.unsafe_get pt (n - 1)
          else Packed_text.unsafe_get pt (sa.(row - 1) - 1))
    in
    (bwt, sentinel_row)
  end

let inverse l =
  let n = String.length l in
  let sentinel_count = ref 0 in
  String.iter (fun c -> if c = Dna.Alphabet.sentinel then incr sentinel_count) l;
  if !sentinel_count <> 1 then
    invalid_arg "Bwt.inverse: input must contain exactly one sentinel";
  (* C.(c) = number of characters strictly smaller than code c. *)
  let sigma = Dna.Alphabet.sigma in
  let counts = Array.make sigma 0 in
  String.iter (fun c -> counts.(Dna.Alphabet.code c) <- counts.(Dna.Alphabet.code c) + 1) l;
  let c_array = Array.make sigma 0 in
  let sum = ref 0 in
  for c = 0 to sigma - 1 do
    c_array.(c) <- !sum;
    sum := !sum + counts.(c)
  done;
  (* lf.(i) = C[l[i]] + rank_{l[i]}(i): position in F of the character L[i]. *)
  let seen = Array.make sigma 0 in
  let lf = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = Dna.Alphabet.code l.[i] in
    lf.(i) <- c_array.(c) + seen.(c);
    seen.(c) <- seen.(c) + 1
  done;
  (* Walk backwards from the row whose L-character is the sentinel's
     predecessor: row 0 of the BWT matrix starts with '$', so L[0] is the
     last character of s; following LF yields s right to left. *)
  let out = Bytes.create (n - 1) in
  let row = ref 0 in
  for i = n - 2 downto 0 do
    Bytes.set out i l.[!row];
    row := lf.(!row)
  done;
  Bytes.unsafe_to_string out
