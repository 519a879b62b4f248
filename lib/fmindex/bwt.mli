(** The Burrows-Wheeler transform of a DNA text.

    We always transform [s ^ "$"] where [$] is the unique smallest
    terminator, so [BWT(s)] is a string of length [n+1] over [$acgt]. *)

val of_text : string -> string
(** [of_text s] computes BWT(s ^ "$") through the suffix array (SA-IS),
    using the paper's formula (3): [L[i] = $ if H[i] = 1 else s[H[i]-1]]. *)

val of_suffix_array : string -> int array -> string
(** Same, given a precomputed suffix array of [s] (without sentinel). *)

val suffix_array : Packed_text.t -> int array
(** Suffix array of a packed text (without sentinel), built by the
    SA-IS of {!Suffix.Suffix_array} reading the 2-bit lanes directly:
    the text is never unpacked. *)

val packed_of_suffix_array : Packed_text.t -> int array -> Packed_text.t * int
(** [packed_of_suffix_array s sa] is the 2-bit packed BWT of [s] with its
    sentinel removed, paired with the sentinel's row index — the form the
    packed FM-index core consumes, built without materializing the
    byte-per-character BWT string. *)

val inverse : string -> string
(** [inverse l] recovers [s] from [l = BWT(s ^ "$")] by iterated
    LF-mapping.  Raises [Invalid_argument] if [l] does not contain exactly
    one sentinel. *)
