(** Sharded multi-process measurement execution — the process-level
    fan-out above {!Mp_util.Parallel}'s domain pool.

    A coordinator shards a (deduplicated) measurement batch across a
    {!Mp_util.Workerpool} of worker subprocesses: re-execs of the
    current executable, flagged by [MP_SHARD_WORKER], each talking
    frames over its stdin/stdout. Jobs are placed by their programs'
    structural hashes, so the same structural program always lands on
    the same worker — that worker's replay table and warm cache
    accumulate exactly the records the program will ask for again;
    placement depends only on the slot count. Results stream back and
    are scattered positionally; execution is bit-identical to
    in-process evaluation (measurements are deterministic given the
    job, and {!Power_sim} sums energies in opcode-name order, so a
    worker's independent intern history cannot reorder a float sum).

    {2 Wire protocol}

    Length-prefixed [Marshal] frames ({!Mp_util.Transport} owns the
    codec). Requests carry the sender's {!Measurement_cache.namespace}
    — schema version plus a digest of the executable, the same guard
    the disk cache uses — and are written with [Marshal.Closures] (the
    uarch's [resources] field is a closure), which is only sound
    between identical binaries: the self-exec guarantees it, and the
    namespace is still checked per request on both ends. Workers
    inherit [MP_CACHE_DIR], so the disk cache and the replay store are
    the merge point: each worker process appends to its own segment of
    checksummed frames, and a campaign's second lap is warm regardless
    of which process measured first.

    {2 Crash tolerance}

    A worker that crashes, writes garbage, or exceeds
    [MP_PROC_TIMEOUT_S] is reaped and its chunks re-enter the queue for
    the surviving slots; {!run_jobs} returns [None] only for positions
    no live slot could complete, and the caller ({!Machine.run_batch})
    re-runs exactly those jobs in its own domain pool — a dying worker
    degrades to a slower batch, never a failed or wrong one. The next
    dispatch respawns the slot; a slot whose spawn failed backs off
    before the next attempt. *)

(** Everything needed to reconstruct an equivalent [Machine.t] in the
    worker (the worker memoizes machines per spec, so consecutive
    batches reuse warm opmaps). *)
type machine_spec = {
  ms_seed : int;
  ms_cache : bool;
  ms_replay : bool;
  ms_uarch : Mp_uarch.Uarch_def.t;
}

type job = {
  j_config : Mp_uarch.Uarch_def.config;
  j_programs : Mp_codegen.Ir.t list;
      (** one element: homogeneous deployment (replicated over SMT
          threads); [smt] elements: heterogeneous per-thread programs *)
}

type request = {
  rq_ns : string;
  rq_chunk : int;
      (** echoed back verbatim in {!response.rs_chunk}: with pipelined
          dispatch, responses are matched by tag, never by arrival
          order alone *)
  rq_warmup : int;
  rq_measure : int;
  rq_period : bool;
  rq_spec : machine_spec;
  rq_jobs : job array;
}

type response = {
  rs_ns : string;
  rs_chunk : int;
  rs_results : (Measurement.t array, string) result;
}

(** {2 Knobs}

    All knobs are read through {!Mp_util.Env}: a malformed value
    raises [Invalid_argument] naming the variable. *)

val env_procs : unit -> int
(** [MP_PROCS] parsed: [0] (the default) means in-process execution;
    [N] means a pool of [N] workers; ["auto"] picks
    [detected_cores / pool_size] (at least 1). Always [0] inside a
    worker process — workers never spawn process pools of their
    own. *)

val default_chunk_jobs : jobs:int -> slots:int -> inflight:int -> int
(** The chunk-size heuristic: jobs per chunk such that each slot's
    pipeline window of [inflight] frames refills about four times over
    a balanced batch ([jobs / (slots * inflight * 4)], at least 1) —
    enough granularity for fast slots to drain a skewed shard, coarse
    enough to amortize framing. {!run_jobs} applies it with a window
    of 2: one chunk computing, one in the pipe. *)

(** {3 Per-slot telemetry}

    Cumulative per slot label ([proc:N]) over every sharded batch in
    the process. *)

type slot_stat = {
  sl_jobs : int;  (** jobs whose results came from here *)
  sl_chunks : int;  (** chunks whose results came from here *)
  sl_busy_s : float;  (** wall time with at least one chunk in flight here *)
  sl_wall_s : float;  (** wall time of the batches this slot took part in *)
}

val slot_stats : unit -> (string * slot_stat) list
(** Sorted by label. Empty until a sharded batch has run. *)

val reset_slot_stats : unit -> unit

val in_worker_process : unit -> bool
(** True when this process was spawned as a shard worker
    ([MP_SHARD_WORKER] set). *)

val shard_index : shards:int -> Mp_codegen.Ir.t list -> int
(** The placement function: an FNV fold of the per-thread programs'
    {!Mp_codegen.Ir.struct_hash} values, mod [shards]. Exposed pure so
    tests and the bench harness can predict job spread. *)

(** {2 Worker side} *)

val install_executor : (request -> Measurement.t array) -> unit
(** Install the function that actually runs a request's jobs.
    {!Machine} calls this from its module initializer — injection
    instead of a direct call breaks the dependency cycle (the
    coordinator lives below Machine, the executor needs Machine). *)

val maybe_become_worker : unit -> unit
(** If this process carries [MP_SHARD_WORKER=1]: dup the protocol fds,
    redirect stdout to stderr (stray prints must not corrupt frames),
    serve request frames until EOF, then [exit 0]. Never returns in a
    worker process; a no-op otherwise. Called at [Machine] module-init,
    after the executor is installed. *)

(** {2 Coordinator side} *)

type pool

val create_pool : ?env:(string * string) list -> int -> pool
(** A pool of [n] worker subprocesses (re-execs of
    [Sys.executable_name]) in slots [0..n-1]. Nothing is spawned until
    a slot's first dispatch. [env] adds environment overrides for the
    workers — the bench harness uses [("MP_POOL_SIZE", d)] to control
    each worker's domain count; the worker flag and [MP_PROCS=0] are
    always set. Each shard exchange is bounded by [MP_PROC_TIMEOUT_S]
    seconds (default 300), read here; a worker that exceeds it is
    treated as crashed. *)

val pool_size : pool -> int
(** The slot count — the [shards] the placement fold sees. *)

val workers : pool -> Mp_util.Workerpool.t
(** The slots, exposed for tests (opening a slot and crash injection
    via {!Mp_util.Workerpool.kill}). *)

val shutdown_pool : pool -> unit
(** Shut down the worker subprocesses. Idempotent. *)

val run_jobs :
  pool ->
  spec:machine_spec ->
  warmup:int ->
  measure:int ->
  ?period:bool ->
  job list ->
  Measurement.t option array
(** Run the jobs on the pool and scatter results back positionally.

    Each slot's {!shard_index} bucket is split into chunks
    ({!default_chunk_jobs}) that {e prefer} their affinity slot — warm
    replay/cache state keeps accruing where placement always put it —
    but dispatch is work-conserving: every live slot keeps up to two
    chunk frames outstanding, completions refill from the slot's own
    queue, then from re-queued chunks of dead slots, then by stealing
    from the longest sibling queue. Each chunk has at most one copy
    outstanding: a crashed slot's chunks re-enter the queue instead of
    falling back to the coordinator, and an executor error fails its
    chunk at once. [None] positions remain only for chunks no live
    slot could complete (executor error, unmarshalable request, or
    every slot dead).

    The result is bit-identical to in-process execution, and
    dispatches are serialized process-wide (one conversation per slot
    at a time). *)

(** {2 The shared pool} *)

val get_pool : int -> pool
(** The process-wide pool, created on first use and grown (never
    shrunk) to at least [n] workers. Shut down at exit. *)

val global_size : unit -> int
(** Workers in the shared pool ([0] when it was never created) — the
    [procs_effective] harness metric. *)

val shutdown_global : unit -> unit
(** Shut down the shared pool now; idempotent. Also registered
    [at_exit]. *)
