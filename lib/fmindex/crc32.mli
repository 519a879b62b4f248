(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320], reflected, init/xorout
    [0xFFFFFFFF]) — the checksum guarding every section of the on-disk
    index format v4.

    The implementation is the standard byte-at-a-time table walk; values
    are plain non-negative [int]s in [0, 2^32) (OCaml ints are 63-bit).
    Matches the reference implementation used by zlib/PNG, so fixtures
    can be cross-checked with external tools. *)

val string : ?init:int -> string -> int
(** CRC of a whole string.  [init] (default 0) is a previous CRC to
    continue from, so [string ~init:(string a) b = string (a ^ b)]. *)

val sub : ?init:int -> string -> pos:int -> len:int -> int
(** CRC of a substring, without copying.
    @raise Invalid_argument on an out-of-range slice. *)

val bytes : ?init:int -> Bytes.t -> int
