(** Content-addressed memoization of measurements, in memory and
    optionally on disk.

    The search drivers re-measure identical (program, configuration)
    points constantly — GA elitism carries points across generations,
    crossover regenerates previously seen sequences, and phased
    workloads repeat their phase programs. Measurements are
    deterministic given (machine seed, program, configuration,
    warmup/measure), so a content-addressed cache returns the exact
    measurement the simulation would have produced.

    Keys digest everything the simulation depends on: the machine seed,
    the configuration, the warmup/measure window, the run name (the
    per-run RNG is seeded from it), a structural fingerprint of every
    per-thread program (opcodes, operands, immediates, memory targets,
    branch patterns, register initialisation and the memory
    distribution) and, via the optional [uarch] argument, the
    micro-architecture definition itself.

    {2 Disk persistence}

    A cache created with [~disk] also persists entries under
    [disk.dir], one file per entry ([namespace ^ "-" ^ key], written to
    a temp file and renamed so readers never see partial entries), and
    consults the directory on in-memory misses — repeated harness
    invocations skip every point a previous run already simulated.
    Entries shard into subdirectories named by the first two hex digits
    of the key ([disk.dir/ab/<namespace>-<key>]) so huge caches never
    accumulate one enormous flat directory. The namespace stamps the
    schema version {e and a digest of the running executable}: entries
    written by a different build are ignored (and pruned on first use),
    because a rebuilt simulator may map the same key to a different
    measurement. Corrupt, truncated or wrong-version files are treated
    as misses, never errors.

    {!Replay} records live in a second store under the same root
    ({!replay_dir}), written and read through {!write_entry} and
    {!read_entry}; pruning, {!gc} and the [MP_CACHE_MAX_MB] bound cover
    both stores.

    All operations are domain-safe: the table is guarded by a mutex so
    a {!Machine.run_batch} fan-out can share one cache. *)

type t

type disk = { dir : string; namespace : string }

val schema_version : int
(** Bumped when the on-disk entry layout changes. *)

val namespace : unit -> string
(** ["v<schema>-<digest of the running executable>"] — the prefix under
    which this build's entries live. *)

val env_disk : unit -> disk option
(** The disk configuration the environment selects: [None] when
    [MP_CACHE] is off, otherwise the directory named by [MP_CACHE_DIR]
    (default ["_mp_cache"]) with {!namespace}. This is what
    {!Machine.create} uses. Raises [Invalid_argument] on a malformed
    [MP_CACHE] ({!Mp_util.Env.flag}). *)

val create : ?disk:disk -> unit -> t
(** [create ()] is purely in-memory; [create ~disk ()] also reads and
    writes [disk.dir] (created on first write; stale-namespace entries
    of both stores are pruned once per process, and when
    [MP_CACHE_MAX_MB] is set the directory is {!gc}'d down to that
    bound once per process). *)

val replay_dir : string -> string
(** [replay_dir root] is the replay store under a cache root
    ([root/replay]). *)

val write_entry : disk -> string -> 'a -> unit
(** Persist one value under [disk.dir/<shard>/<namespace>-<key>]:
    written to a [.tmp.*] file in the shard and renamed into place, so
    readers never see a partial entry. Best-effort: IO errors are
    swallowed. *)

val read_entry : disk -> string -> 'a option
(** The value {!write_entry} stored under the key, or [None] for a
    missing, truncated, corrupt or wrong-version file. Unchecked like
    [Marshal]: the caller must read the type that was written, which
    is why each store keeps one type in its own directory. *)

(** {2 Housekeeping}

    The directory otherwise grows without limit: the current build's
    entries accumulate across runs, and every rebuild opens a fresh
    namespace. *)

type gc_stats = {
  entries : int;      (** entry files examined (in-flight temps excluded) *)
  removed : int;      (** entries deleted by this sweep *)
  bytes_before : int;
  bytes_after : int;
}

val env_max_bytes : unit -> int option
(** The size bound the environment selects: [MP_CACHE_MAX_MB] parsed as
    a positive number of mebibytes ([None] when unset or blank; any
    other non-positive or non-numeric value raises
    [Invalid_argument]). *)

val gc : ?max_bytes:int -> string -> gc_stats
(** [gc dir] prunes entry files from a cache directory — measurement
    entries and the replay store under it alike — oldest mtime first
    (path breaks ties, so eviction order is deterministic), until the
    total size is at most [max_bytes] (default {!env_max_bytes};
    a no-op sweep when neither gives a bound). Entries still being
    written — the [.tmp.*] files {!write_entry} renames into place —
    are never touched, and a concurrently deleted entry is simply a
    future cache miss, so running [gc] against a live cache is safe.
    Best-effort: IO errors skip the file rather than raise. *)

type disk_stats = {
  ds_shards : int;   (** two-hex-digit shard subdirectories present *)
  ds_entries : int;  (** entry files, root plus shards (temps excluded) *)
  ds_bytes : int;    (** total size of those entries *)
}

val disk_stats : string -> disk_stats
(** Read-only scan of one store — a cache root, or its {!replay_dir}
    — what [mp-cache stat] prints for each. A missing directory
    reports all zeros; in-flight [.tmp.*] files are excluded, as
    everywhere else. *)

val persistent : t -> bool

type stats = {
  hits : int;      (** lookups served without computing (memory or disk) *)
  misses : int;    (** computations actually executed *)
  disk_hits : int; (** the subset of [hits] loaded from disk *)
}

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 when nothing was looked up. *)

val reset_stats : t -> unit

val clear : t -> unit
(** Drop the in-memory table and the counters (disk entries are kept). *)

val length : t -> int
(** Number of memoized measurements in memory. *)

val uarch_fingerprint : Mp_uarch.Uarch_def.t -> string
(** Digest of a micro-architecture definition, for the [uarch] key
    component — two machines with different uarchs must never share an
    entry. *)

val key :
  ?uarch:string ->
  ?seed:int ->
  config:Mp_uarch.Uarch_def.config ->
  warmup:int ->
  measure:int ->
  name:string ->
  Mp_codegen.Ir.t array ->
  string
(** Digest of one measurement job. The array holds the per-thread
    programs (a single element for homogeneous deployment — replication
    over SMT threads is captured by [config]); [uarch] is a
    {!uarch_fingerprint} (default empty for callers with a fixed
    uarch). Omit [seed] for seed-independent measurements (no
    seed-consuming generation pass, no memory streams): their bytes are
    the same on every machine, so the shared key lets warm disk caches
    serve all seeds.

    An O(1)-per-program FNV/splitmix fold over the job parameters and
    each program's precomputed {!Mp_codegen.Ir.struct_hash}; 16 hex
    characters. *)

val key_seconds : unit -> float
(** Cumulative wall-clock seconds this process has spent inside {!key},
    for the bench harness's [key_digest_seconds] metric. *)

val find : t -> string -> Measurement.t option
(** Memory first, then disk (promoting a disk entry into memory).
    Counts a hit or a miss. *)

val add : t -> string -> Measurement.t -> unit
(** First writer wins (concurrent writers compute identical values);
    persisted when the cache has a disk. *)

val find_or_add : t -> string -> (unit -> Measurement.t) -> Measurement.t
(** [find_or_add t k compute] returns the cached measurement for [k],
    or runs [compute] (outside the lock) and memoizes its result.

    {e Single-flight}: concurrent calls for the same key run [compute]
    at most once — the first claimant computes while the others block
    until the value is published, then return it (counted as hits, so
    [misses] equals computations executed). If the computing domain's
    [compute] raises, the exception propagates to it alone and one
    blocked caller takes over the computation. [compute] must not
    re-enter [find_or_add] with the same key (it would deadlock);
    simulation jobs never do. *)
