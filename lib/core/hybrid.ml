module Fm = Fmindex.Fm_index
module Packed_text = Fmindex.Packed_text

let search ?stats ~ptext fm ~pattern ~k =
  if pattern = "" then invalid_arg "Hybrid.search: empty pattern";
  if k < 0 then invalid_arg "Hybrid.search: negative k";
  String.iter
    (fun c ->
      if not (Dna.Alphabet.is_base c && c = Dna.Alphabet.normalize c) then
        invalid_arg "Hybrid.search: pattern must be lowercase acgt")
    pattern;
  let m = String.length pattern in
  let k = min k m in
  (* budgets beyond m behave exactly like k = m *)
  let n = Fm.length fm in
  if n <> Packed_text.length ptext then
    invalid_arg "Hybrid.search: packed text and index lengths differ";
  let bump (f : Stats.t -> unit) = match stats with Some s -> f s | None -> () in
  if m > n then []
  else begin
    let delta = S_tree.delta_heuristic fm ~pattern in
    let pat_codes = Array.init m (fun i -> Dna.Alphabet.code pattern.[i]) in
    let results = ref [] in
    let locate_buf = ref [||] in
    let report ((lo, hi) as iv) q =
      let cnt = hi - lo in
      if Array.length !locate_buf < cnt then locate_buf := Array.make cnt 0;
      let buf = !locate_buf in
      Fm.locate_into fm iv buf;
      for i = 0 to cnt - 1 do
        results := (n - Array.unsafe_get buf i - m, q) :: !results
      done
    in
    let one = Array.make 1 0 in
    (* Direct verification of the window once its start is pinned down,
       on the word-parallel kernel with the pattern packed once per
       query.  The kernel recomputes the whole window rather than
       resuming after the [j] characters the BWT search matched; the
       total is the same distance. *)
    let pp = Packed_text.Pattern.make pattern in
    let verify pos =
      if pos + m <= n then begin
        let d = Packed_text.hamming ~limit:k ptext pp ~pos in
        if d <= k then results := (pos, d) :: !results
      end
    in
    let rec expand iv j q =
      Deadline.poll ();
      let lo, hi = iv in
      if j = m then begin
        bump (fun s -> s.leaves <- s.leaves + 1);
        report iv q
      end
      else if hi - lo = 1 then begin
        (* Unique candidate: leave the BWT and compare text directly. *)
        bump (fun s -> s.resumes <- s.resumes + 1);
        Fm.locate_into fm iv one;
        verify (n - one.(0) - j)
      end
      else begin
        let los = Array.make 5 0 and his = Array.make 5 0 in
        bump (fun s -> s.rank_calls <- s.rank_calls + 2);
        Fm.extend_all fm iv ~los ~his;
        for c = 1 to 4 do
          if los.(c) < his.(c) then begin
            let q' = if c = pat_codes.(j) then q else q + 1 in
            if q' <= k && k - q' >= delta.(j + 2) then begin
              bump (fun s -> s.nodes <- s.nodes + 1);
              expand (los.(c), his.(c)) (j + 1) q'
            end
          end
        done
      end
    in
    expand (Fm.whole fm) 0 0;
    List.sort Hit.compare !results
  end
