(* Field width for the Shift-Add automaton: each field must count to k+1
   without touching its own top (overflow) bit, i.e. k+1 <= 2^(b-1) - 1.
   Computed without ever forming k+1 or shifting past bit 61, both of
   which overflow for huge budgets: the old [1 lsl (b-1) > k + 1] loop
   returned 2 for [k = max_int] (so [fits] lied and [search] miscounted)
   and looped forever for [k + 1 >= 2^62].  Budgets too large for any
   62-bit field report [max_int], which no word can fit. *)
let field_bits k =
  let rec go b =
    if b > 62 then max_int
    else if k <= (1 lsl (b - 1)) - 2 then b
    else go (b + 1)
  in
  go 2

(* [m * field_bits k <= 63], phrased as a division so that neither the
   huge-[k] sentinel nor a huge [m] can overflow the product. *)
let fits ~m ~k = m >= 1 && k >= 0 && field_bits k <= 63 / m

let search ~pattern ~text ~k =
  let m = String.length pattern in
  if m = 0 then invalid_arg "Shift_or.search: empty pattern";
  if k < 0 then invalid_arg "Shift_or.search: negative k";
  if not (fits ~m ~k) then
    invalid_arg "Shift_or.search: pattern/budget do not fit the machine word";
  let b = field_bits k in
  let field_mask = (1 lsl b) - 1 in
  let ov_bit = 1 lsl (b - 1) in
  (* t.(c) holds, in field j, whether pattern[j] mismatches character c. *)
  let t = Array.make 256 0 in
  for c = 0 to 255 do
    let v = ref 0 in
    for j = 0 to m - 1 do
      if pattern.[j] <> Char.chr c then v := !v lor (1 lsl (j * b))
    done;
    t.(c) <- !v
  done;
  let ov_mask =
    let v = ref 0 in
    for j = 0 to m - 1 do
      v := !v lor (ov_bit lsl (j * b))
    done;
    !v
  in
  let acc = ref [] in
  let d = ref 0 and ov = ref 0 in
  String.iteri
    (fun i c ->
      let d' = (!d lsl b) + t.(Char.code c) in
      ov := ((!ov lsl b) lor (d' land ov_mask)) land ov_mask;
      d := d' land lnot ov_mask;
      if i >= m - 1 then begin
        let count = (!d lsr ((m - 1) * b)) land field_mask in
        let overflowed = !ov land (ov_bit lsl ((m - 1) * b)) <> 0 in
        if (not overflowed) && count <= k then acc := (i - m + 1, count) :: !acc
      end)
    text;
  List.rev !acc
