(** Bit-parallel k-mismatch matching: the counting (Shift-Add)
    extension of Baeza-Yates-Gonnet Shift-Or.

    For patterns that fit the 63-bit machine word, one counter field per
    pattern position advances by a shift and an add per text character.
    It is an independent oracle for the k-mismatch engines (the fuzz
    oracle's [shift-add] subject). *)

val search : pattern:string -> text:string -> k:int -> (int * int) list
(** Shift-Add style matching with up to [k] mismatches: all
    [(position, distance)] pairs, ascending.  The per-position mismatch
    counters are kept in [ceil(log2 (k+2))]-bit fields, so the constraint
    is [m * bits <= 63]; raises [Invalid_argument] when the pattern does
    not fit, is empty, or [k < 0]. *)

val fits : m:int -> k:int -> bool
(** Whether a pattern of length [m] with budget [k] fits the word.
    Overflow-safe for any [m] and [k] (budgets of [2^61 - 1] and beyond,
    [max_int] included, never fit: their counter fields would need more
    than the 62 usable bits). *)
