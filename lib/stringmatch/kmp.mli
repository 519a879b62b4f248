(** Knuth-Morris-Pratt exact matching (paper §II): O(m + n) with the
    failure-function shift table.  The Amir baseline answers [k = 0]
    queries with it. *)

val failure : string -> int array
(** [failure p] is the border table: [f.(i)] is the length of the longest
    proper border of [p[0 .. i]]. *)

val find_all : pattern:string -> text:string -> int list
(** All starting positions of [pattern] in [text], ascending.  The empty
    pattern matches at every position [0 .. n]. *)
