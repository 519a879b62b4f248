(** A searchable reference corpus: one monolithic {!Kmismatch.index}, or
    a set of overlapping per-shard indexes tied together by a manifest.

    {b Why shards.}  A monolithic FM-index must be built (and rebuilt) in
    one piece; shards of a bounded size are built {e in parallel} on a
    {!Work_pool}, saved as independent files, and loaded — by copy or by
    mmap — one by one.  Queries fan out across the shards and merge into
    the same global coordinates a monolithic index would report.

    {b Coverage.}  Shard [i] {e owns} the global range
    [[off_i, off_i + owned_i)] and {e stores} [owned_i + overlap] bases
    (clipped at the corpus end).  A match of length [m <= overlap + 1]
    starting at an owned position therefore lies entirely inside the
    shard's stored text, and every match is reported by exactly one
    shard — the one owning its start.  Conversely a query longer than
    [overlap + 1] could straddle a boundary invisibly, so it is refused
    with a typed {!Kmm_error.Bad_input} instead of answered wrongly
    (unless the corpus has a single shard, which stores everything).

    {b Manifest format} (version 1, ASCII, CRC-guarded):
    {v
    kmm-manifest 1 <nshards> <total> <overlap>
    shard <off> <owned> <stored> <crc32> <file>     (one line per shard)
    hcrc <crc32>
    v}
    [<file>] is relative to the manifest's directory; [<crc32>] on a
    shard line is the CRC-32 of that shard's index file image (checked
    by [kmm verify], not on load — a load already has the index file's
    own internal CRCs, and an mmap load must stay O(1)); [hcrc] guards
    every preceding manifest byte. *)

type t

val mono : Kmismatch.index -> t
(** Wrap a monolithic index as a corpus. *)

val build :
  ?occ_rate:int ->
  ?sa_rate:int ->
  ?shard_size:int ->
  ?overlap:int ->
  ?domains:int ->
  string ->
  t
(** Index a text.  Without [shard_size] this is a monolithic
    {!Kmismatch.build_index}.  With [shard_size] the text is cut into
    [ceil (n / shard_size)] shards (even just one — the sharded layout
    is kept so a small corpus exercises the same code paths), each
    storing its owned range plus [overlap] (default
    {!default_overlap}) trailing bases, and the per-shard indexes are
    built in parallel on [domains] (default 1) OCaml domains.  Shard
    [task] lands in slot [task] whatever domain built it, so the corpus
    is deterministic at any domain count.
    @raise Invalid_argument on [shard_size < 1], [overlap < 0],
    [domains < 1], or a non-ACGT character in the text. *)

val default_overlap : int
(** Default shard overlap (1023): queries up to 1 KiB never hit the
    boundary limit. *)

val length : t -> int
(** Total corpus length in bases. *)

val nshards : t -> int
(** Number of shards; 1 for a monolithic corpus. *)

val overlap : t -> int option
(** The shard overlap; [None] for a monolithic corpus. *)

val max_query : t -> int
(** Longest pattern the corpus can answer exactly: the text length for a
    monolithic or single-shard corpus, [overlap + 1] otherwise. *)

val try_run : t -> Kmismatch.Query.t -> (Kmismatch.Response.t, Kmm_error.t) result
(** Answer one query.  Monolithic corpora delegate to
    {!Kmismatch.try_run} unchanged.  Sharded corpora fan the query out
    over the shards {e sequentially} (a per-query fan-out must never
    re-enter the {!Work_pool} the mapper may already be running on),
    keep each hit only in the shard owning its start, and shift it to
    global coordinates; shard-order concatenation is globally sorted by
    position, byte-identical to a monolithic index of the same text.
    Engine counters are merged and per-phase timings summed across
    shards.  A pattern longer than {!max_query} (but not longer than the
    corpus — that is an ordinary empty answer, as for a monolithic
    index) is [Error (Bad_input _)] naming the limit. *)

val target : t -> Mapper.target
(** The corpus as a mapper target: reads up to {!max_query} are
    answered in global coordinates; longer reads are skipped with a
    typed reason naming the limit. *)

(** {1 Persistence} *)

val save : t -> string -> unit
(** Persist to [path].  A monolithic corpus writes a plain index file
    ({!Kmismatch.save_index}).  A sharded corpus writes one index file
    per shard ([path ^ ".shardNNN.fmi"], atomically, in manifest order)
    and then the manifest at [path] — manifest last, so a crash
    mid-save never leaves a manifest naming missing or half-written
    shard files. *)

val try_load : ?mode:Fmindex.Fm_index.mode -> string -> (t, Kmm_error.t) result
(** Load [path], sniffing its type: a manifest loads every shard (with
    [mode] forwarded to {!Fmindex.Fm_index.try_load} — [Mmap] makes
    corpus cold-start O(shards), not O(n)); anything else is treated as
    a plain index file.  Manifest failures are typed: a forged or
    truncated manifest, a bad shard geometry, a shard file whose length
    disagrees with its manifest line, or any per-shard load failure. *)

val load : ?mode:Fmindex.Fm_index.mode -> string -> t
(** Raising wrapper over {!try_load} (the {!Fmindex.Fm_index.load}
    contract: [Failure] on invalid files, the original exception on
    I/O failure). *)

val is_manifest : string -> bool
(** Whether the file at [path] starts with the manifest magic (false on
    any I/O failure — the caller's load will report it properly). *)

(** {1 Manifest introspection}

    [kmm verify] checks what a load (deliberately) does not: that every
    shard file's bytes still hash to the CRC recorded in the manifest. *)

type entry = {
  e_off : int;
  e_owned : int;
  e_stored : int;
  e_crc : int;  (** CRC-32 of the shard's index file image *)
  e_file : string;  (** relative to the manifest's directory *)
}

type manifest = { m_total : int; m_overlap : int; m_entries : entry array }

val try_read_manifest : string -> (manifest, Kmm_error.t) result
(** Parse and validate a manifest file (header CRC + shard geometry)
    without loading any shard. *)
