let failure p =
  let m = String.length p in
  let f = Array.make (max m 1) 0 in
  let k = ref 0 in
  for i = 1 to m - 1 do
    while !k > 0 && p.[!k] <> p.[i] do
      k := f.(!k - 1)
    done;
    if p.[!k] = p.[i] then incr k;
    f.(i) <- !k
  done;
  if m = 0 then [||] else f

let find_all ~pattern ~text =
  let m = String.length pattern and n = String.length text in
  if m = 0 then List.init (n + 1) (fun i -> i)
  else begin
    let f = failure pattern in
    let acc = ref [] in
    let k = ref 0 in
    for i = 0 to n - 1 do
      while !k > 0 && pattern.[!k] <> text.[i] do
        k := f.(!k - 1)
      done;
      if pattern.[!k] = text.[i] then incr k;
      if !k = m then begin
        acc := (i - m + 1) :: !acc;
        k := f.(m - 1)
      end
    done;
    List.rev !acc
  end
