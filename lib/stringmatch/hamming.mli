(** Naive O(mn) string matching with k mismatches; the ground-truth oracle
    against which every index-based engine is tested. *)

val distance_at : ?limit:int -> pattern:string -> text:string -> int -> int
(** [distance_at ~pattern ~text pos] is the Hamming distance between
    [pattern] and [text[pos .. pos+m-1]].  With [?limit] the scan stops
    as soon as the running count exceeds it — the result is then only
    meaningful as "greater than [limit]" (it counts the scanned prefix
    only), matching the early-exit contract of [Packed_text.hamming].
    ([pos] is positional so [?limit] stays erasable.)  Raises
    [Invalid_argument] if the window does not fit. *)

val search : pattern:string -> text:string -> k:int -> (int * int) list
(** All [(position, mismatches)] with [mismatches <= k], ascending by
    position.  Scanning aborts early per window once the budget is
    exceeded. *)
