let distance_at ?(limit = max_int) ~pattern ~text pos =
  let m = String.length pattern in
  if pos < 0 || pos + m > String.length text then
    invalid_arg "Hamming.distance_at: window out of range";
  let d = ref 0 in
  let j = ref 0 in
  while !j < m && !d <= limit do
    if pattern.[!j] <> text.[pos + !j] then incr d;
    incr j
  done;
  !d

let search ~pattern ~text ~k =
  if k < 0 then invalid_arg "Hamming.search: negative k";
  let m = String.length pattern and n = String.length text in
  let acc = ref [] in
  for i = n - m downto 0 do
    Deadline.poll ();
    let d = ref 0 in
    let j = ref 0 in
    while !j < m && !d <= k do
      if pattern.[!j] <> text.[i + !j] then incr d;
      incr j
    done;
    if !d <= k then acc := (i, !d) :: !acc
  done;
  !acc
