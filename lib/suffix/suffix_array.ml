(* SA-IS (Nong, Zhang & Chan 2009), laid out after sais-lite: a virtual
   sentinel, S/L types in one byte per position, LMS-substring names kept
   in the free half of the SA buffer, and the reduced string of every
   recursion level stored in that same buffer.  See suffix_array.mli for
   the memory budget.

   The level code is written once, over an abstract symbol reader: level
   0 reads the caller's text (bytes, or 2-bit lanes through [Make]), and
   every deeper level reads its reduced string out of the SA buffer. *)

module type SYMBOLS = sig
  type t

  val get : t -> int -> int
end

let s_type = '\001'
let l_type = '\000'

(* Unchecked indexing for the level code: every index is a text
   position, a bucket or a slot that the SA-IS invariants keep in range,
   and the tests cross-check the output against two independent
   builders. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* Bucket [c] of the SA spans [heads(c), tails(c)): every suffix that
   starts with symbol [c]. *)
let bucket_heads counts bkt =
  let sum = ref 0 in
  for c = 0 to Array.length counts - 1 do
    bkt.!(c) <- !sum;
    sum := !sum + counts.!(c)
  done

let bucket_tails counts bkt =
  let sum = ref 0 in
  for c = 0 to Array.length counts - 1 do
    sum := !sum + counts.!(c);
    bkt.!(c) <- !sum
  done

let is_s types i = Bytes.unsafe_get types i = s_type

(* Leftmost S-type: an S-type position whose left neighbour is L-type. *)
let is_lms types i = i > 0 && is_s types i && not (is_s types (i - 1))

module Level (S : SYMBOLS) = struct
  (* One pass over the symbols, right to left: count them and classify
     the suffixes.  It is the one checked pass, and every later read of
     [s] meets the same values, so the unchecked bucket accesses stay
     in range.  The virtual sentinel is symbol -1, so suffix [n-1] is
     L-type. *)
  let scan s n k types =
    let counts = Array.make k 0 in
    let next = ref (-1) and next_s = ref false in
    for i = n - 1 downto 0 do
      let c = S.get s i in
      if c < 0 || c >= k then invalid_arg "Suffix_array: symbol out of range";
      counts.!(c) <- counts.!(c) + 1;
      let here_s = c < !next || (c = !next && !next_s) in
      Bytes.unsafe_set types i (if here_s then s_type else l_type);
      next := c;
      next_s := here_s
    done;
    counts

  (* Induce every suffix from the LMS suffixes seeded at their bucket
     tails: L-types left to right from the bucket heads, starting with
     suffix [n-1], which the virtual sentinel's suffix induces; then
     S-types right to left from the bucket tails, overwriting the
     seeds.  Empty slots hold -1. *)
  let induce s n types counts bkt sa =
    bucket_heads counts bkt;
    let c = S.get s (n - 1) in
    sa.!(bkt.!(c)) <- n - 1;
    bkt.!(c) <- bkt.!(c) + 1;
    for i = 0 to n - 1 do
      let j = sa.!(i) - 1 in
      if j >= 0 && not (is_s types j) then begin
        let c = S.get s j in
        let p = bkt.!(c) in
        sa.!(p) <- j;
        bkt.!(c) <- p + 1
      end
    done;
    bucket_tails counts bkt;
    for i = n - 1 downto 0 do
      let j = sa.!(i) - 1 in
      if j >= 0 && is_s types j then begin
        let c = S.get s j in
        let p = bkt.!(c) - 1 in
        sa.!(p) <- j;
        bkt.!(c) <- p
      end
    done

  (* Two LMS substrings of the same length [len] (next LMS position
     included) are equal iff their symbols are: equal symbols force
     equal types.  Only the last one reaches the sentinel at [n], which
     is unique. *)
  let same_substring s n p q len =
    let d = ref 0 in
    while
      !d < len && p + !d < n && q + !d < n && S.get s (p + !d) = S.get s (q + !d)
    do
      incr d
    done;
    !d = len

  (* Sort the suffixes of [s.(0 .. n-1)] (symbols in [0, k)) into
     [sa.(0 .. n-1)].  [recurse sa off m k'] must do the same for the
     reduced string held in [sa.(off .. off+m-1)]. *)
  let run ~recurse s n k sa =
    let types = Bytes.create n in
    let counts = scan s n k types in
    let bkt = Array.make k 0 in
    (* Stage 1: seed the LMS positions in any order and induce; this
       sorts the LMS substrings. *)
    Array.fill sa 0 n (-1);
    bucket_tails counts bkt;
    let m = ref 0 in
    for i = 1 to n - 1 do
      if is_lms types i then begin
        let c = S.get s i in
        let p = bkt.!(c) - 1 in
        sa.!(p) <- i;
        bkt.!(c) <- p;
        incr m
      end
    done;
    let m = !m in
    induce s n types counts bkt sa;
    let j = ref 0 in
    for i = 0 to n - 1 do
      let p = sa.!(i) in
      if is_lms types p then begin
        sa.!(!j) <- p;
        incr j
      end
    done;
    (* Name the sorted LMS substrings.  LMS positions are at least two
       apart, so slot [m + p/2] of the free half is [p]'s own (m <= n/2);
       it holds the substring's length, then its name. *)
    Array.fill sa m (n - m) (-1);
    let next = ref n in
    for i = n - 1 downto 1 do
      if is_lms types i then begin
        sa.!(m + (i lsr 1)) <- !next - i + 1;
        next := i
      end
    done;
    let name = ref (-1) and prev = ref 0 and prev_len = ref 0 in
    for r = 0 to m - 1 do
      let p = sa.!(r) in
      let slot = m + (p lsr 1) in
      let len = sa.!(slot) in
      if not (len = !prev_len && same_substring s n p !prev len) then incr name;
      sa.!(slot) <- !name;
      prev := p;
      prev_len := len
    done;
    let names = !name + 1 in
    (* Stage 2: unless every name is unique, the LMS suffix order comes
       from the suffix array of the reduced string (the names in text
       order), built in [sa.(0 .. m-1)] from a copy at the top. *)
    if names < m then begin
      let j = ref n in
      for i = n - 1 downto m do
        let v = sa.!(i) in
        if v >= 0 then begin
          decr j;
          sa.!(!j) <- v
        end
      done;
      recurse sa (n - m) m names;
      let j = ref n in
      for i = n - 1 downto 1 do
        if is_lms types i then begin
          decr j;
          sa.!(!j) <- i
        end
      done;
      for r = 0 to m - 1 do
        sa.!(r) <- sa.!(n - m + sa.!(r))
      done
    end;
    (* Stage 3: seed the sorted LMS suffixes at their bucket tails, in
       order, and induce the rest.  Placing from the largest down never
       overwrites an unread entry: the r-th LMS suffix lands at or
       after slot r. *)
    Array.fill sa m (n - m) (-1);
    bucket_tails counts bkt;
    for r = m - 1 downto 0 do
      let p = sa.!(r) in
      sa.!(r) <- -1;
      let c = S.get s p in
      let q = bkt.!(c) - 1 in
      sa.!(q) <- p;
      bkt.!(c) <- q
    done;
    induce s n types counts bkt sa
end

(* A deeper level's symbols: its reduced string, at [off] in the SA
   buffer of the level above. *)
module Window = struct
  type t = { buf : int array; off : int }

  let get w i = w.buf.!(w.off + i)
end

module Int_level = Level (Window)

let rec sais_ints sa off n k =
  Int_level.run ~recurse:sais_ints { Window.buf = sa; off } n k sa

module Make (S : SYMBOLS) = struct
  module L = Level (S)

  let build s ~len ~sigma =
    let sa = Array.make len 0 in
    if len > 0 then L.run ~recurse:sais_ints s len sigma sa;
    sa
end

module Of_string = Make (struct
  type t = string

  let get s i = Char.code (String.unsafe_get s i)
end)

let build s = Of_string.build s ~len:(String.length s) ~sigma:256

let build_doubling s =
  let n = String.length s in
  if n = 0 then [||]
  else begin
    let sa = Array.init n (fun i -> i) in
    let rank = Array.init n (fun i -> Char.code s.[i]) in
    let tmp = Array.make n 0 in
    let k = ref 1 in
    let continue = ref (n > 1) in
    while !continue do
      let key i = (rank.(i), if i + !k < n then rank.(i + !k) else -1) in
      Array.sort (fun a b -> compare (key a) (key b)) sa;
      tmp.(sa.(0)) <- 0;
      for i = 1 to n - 1 do
        tmp.(sa.(i)) <-
          (tmp.(sa.(i - 1)) + if key sa.(i - 1) = key sa.(i) then 0 else 1)
      done;
      Array.blit tmp 0 rank 0 n;
      if rank.(sa.(n - 1)) = n - 1 then continue := false;
      k := !k * 2
    done;
    sa
  end

let build_naive s =
  let n = String.length s in
  let sa = Array.init n (fun i -> i) in
  let suffix i = String.sub s i (n - i) in
  Array.sort (fun a b -> compare (suffix a) (suffix b)) sa;
  sa

let rank_of sa =
  let rank = Array.make (Array.length sa) 0 in
  Array.iteri (fun i p -> rank.(p) <- i) sa;
  rank

let is_valid s sa =
  let n = String.length s in
  Array.length sa = n
  && begin
       let seen = Array.make n false in
       Array.for_all
         (fun p ->
           p >= 0 && p < n
           &&
           if seen.(p) then false
           else begin
             seen.(p) <- true;
             true
           end)
         sa
     end
  &&
  let suffix i = String.sub s i (n - i) in
  let rec sorted i =
    i >= n - 1 || (String.compare (suffix sa.(i)) (suffix sa.(i + 1)) < 0 && sorted (i + 1))
  in
  sorted 0
