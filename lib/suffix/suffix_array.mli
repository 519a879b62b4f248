(** Suffix-array construction.

    Two builders are provided: the linear-time SA-IS algorithm (used
    everywhere in production) and a simple prefix-doubling builder kept as an
    independently-written cross-check for tests.

    The suffix array of [s] is the permutation [sa] of [0 .. n-1] such that
    the suffix [s[sa.(i) ..]] is the [i]-th smallest suffix in plain
    lexicographic order (a proper prefix sorts before its extensions).

    {b SA-IS layout and memory.}  The sentinel is virtual (smaller than
    every symbol, never stored), so the result buffer is exactly the
    returned array and nothing is copied out of it.  Each recursion
    level keeps its S/L types at one byte per position and two bucket
    arrays of [sigma] words (level 0) or one word per distinct LMS name
    (deeper levels).  The LMS names and the reduced string of every
    level live inside the result buffer.  No lists and no per-call
    closures are allocated.  At 2 Mbp of DNA the heap peaks at
    ~20 MB (16 MB of it the result) with a few hundred minor words. *)

val build : string -> int array
(** Linear-time SA-IS construction over the byte alphabet (all 256
    values). *)

(** A symbol reader: [get s i] is the [i]-th symbol of [s]. *)
module type SYMBOLS = sig
  type t

  val get : t -> int -> int
end

(** The same SA-IS over any symbol reader: {!build} is its instance over
    bytes, and the FM-index builders run it over 2-bit packed lanes. *)
module Make (S : SYMBOLS) : sig
  val build : S.t -> len:int -> sigma:int -> int array
  (** [build s ~len ~sigma] is the suffix array of the symbols
      [S.get s 0 .. S.get s (len-1)].  [S.get] must be pure.  Raises
      [Invalid_argument] if a symbol is outside [\[0, sigma)]. *)
end

val build_doubling : string -> int array
(** O(n log^2 n) prefix-doubling construction; reference implementation for
    cross-checking. *)

val build_naive : string -> int array
(** O(n^2 log n) sort of explicit suffixes; only for tiny test inputs. *)

val rank_of : int array -> int array
(** [rank_of sa] is the inverse permutation: [rank.(sa.(i)) = i]. *)

val is_valid : string -> int array -> bool
(** Full validity check (permutation + sortedness); for tests. *)
