(** Hybrid FM-index + verification engine (an extension beyond the paper).

    Identical to the S-tree search while BWT intervals are wide, but the
    moment an interval narrows to a single row the unique candidate
    position is located and the window is checked directly against the
    packed text — no further rank operations.  This is how practical
    read aligners in the BWA family treat the deep, unary part of the
    search tree, and it is the natural modern baseline to measure the
    paper's derivation machinery against (see the ablation bench). *)

val search :
  ?stats:Stats.t ->
  ptext:Fmindex.Packed_text.t ->
  Fmindex.Fm_index.t ->
  pattern:string ->
  k:int ->
  (int * int) list
(** [search ~ptext fm_rev ~pattern ~k]: [fm_rev] indexes [rev text] and
    [ptext] is the packed forward text, which the verification step
    reads through the word-parallel kernel
    ({!Fmindex.Packed_text.hamming}).  Same contract as
    {!S_tree.search} with the delta heuristic.  Raises
    [Invalid_argument] if [ptext] and the index differ in length. *)
