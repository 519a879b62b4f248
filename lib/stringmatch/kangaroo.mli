(** The Landau-Vishkin / Galil-Giancarlo "kangaroo" method (the paper's
    refs [19]/[30]): O(kn) k-mismatch matching by jumping between mismatch
    positions with O(1) longest-common-extension queries.

    This is the strongest *online* baseline class the paper compares
    against. *)

type t

val make : pattern:string -> text:string -> t
(** Preprocess the pair (suffix array + LCP + RMQ of [pattern#text]). *)

val mismatches_at : t -> pos:int -> limit:int -> int list
(** The first [limit] mismatch offsets (0-based within the pattern) between
    the pattern and the window of text starting at [pos]; fewer are
    returned when the window has fewer mismatches.  Raises
    [Invalid_argument] when the window does not fit. *)

val distance_at : t -> pos:int -> k:int -> int option
(** [Some d] with [d <= k] if the window at [pos] has at most [k]
    mismatches, [None] otherwise.  O(k) per call. *)

val search :
  ?ptext:Fmindex.Packed_text.t ->
  pattern:string ->
  k:int ->
  string ->
  (int * int) list
(** [search ~pattern ~k text] is every [(position, mismatches)] with at
    most [k] mismatches, ascending.  O(kn) after O(m + n)
    preprocessing.  ([text] is positional so [?ptext] stays
    erasable.)

    The result is always the LCE path's; the options below only change
    its cost.  With [?ptext] (the packed form of [text]) and a
    lowercase-[acgt] pattern, windows are verified by the word-parallel
    kernel ({!Fmindex.Packed_text.hamming}) whenever the cost model
    predicts it beats LCE preprocessing; without it, patterns short
    enough that early-exit scans beat building the suffix structures
    fall back to scalar scans ({!Hamming.distance_at} with [?limit]). *)
