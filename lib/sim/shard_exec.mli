(** Sharded multi-process and multi-host measurement execution — the
    process-level fan-out above {!Mp_util.Parallel}'s domain pool.

    A coordinator shards a (deduplicated) measurement batch across a
    mixed {!Mp_util.Workerpool} of {e subprocesses} (re-execs of the
    current executable, flagged by [MP_SHARD_WORKER], each talking
    frames over its stdin/stdout) and {e remote peers} (the same
    executable running [microprobe worker --listen], over TCP). Jobs
    are placed by their programs' structural hashes, so the same
    structural program always lands on the same worker — that
    worker's replay table and warm cache accumulate exactly the
    records the program will ask for again; placement
    depends only on the slot count, never on a slot's transport.
    Results stream back and are scattered positionally; execution is
    bit-identical to in-process evaluation (measurements are
    deterministic given the job, and {!Power_sim} sums energies in
    opcode-name order, so a worker's independent intern history cannot
    reorder a float sum).

    {2 Wire protocol}

    Length-prefixed [Marshal] frames ({!Mp_util.Transport} owns the
    codec; every slot speaks the identical format). Requests
    carry the sender's {!Measurement_cache.namespace} — schema version
    plus a digest of the executable, the same guard the disk cache
    uses — and are written with [Marshal.Closures] (the uarch's
    [resources] field is a closure), which is only sound between
    identical binaries: the self-exec guarantees it for subprocesses,
    and TCP peers additionally prove it at connect time by exchanging a
    handshake frame carrying the namespace (a mismatched peer is
    rejected before any closure-bearing frame is decoded; the
    namespace is still re-checked per request on both ends). Workers
    inherit [MP_CACHE_DIR], so the sharded disk cache and the replay
    store are the merge point: every worker writes through with the
    same tmp+rename atomicity, and a campaign's second lap is warm
    regardless of which process measured first.

    {2 Crash tolerance}

    A worker that crashes, writes garbage, or exceeds
    [MP_PROC_TIMEOUT_S] is reaped and its chunks re-enter the queue for
    the surviving slots; {!run_jobs} returns [None] only for positions
    no live slot could complete, and the caller ({!Machine.run_batch})
    re-runs exactly those jobs in its own domain pool — a dying worker
    degrades to a slower batch, never a failed or wrong one. The next
    dispatch respawns a subprocess slot or reconnects a remote one
    (the remote worker process itself is out of our hands); a slot
    whose open failed backs off before the next attempt. *)

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
          and speculated dispatch, responses are matched by tag, never
          by arrival order alone *)
  rq_warmup : int;
  rq_measure : int;
  rq_period : bool option;
  rq_spec : machine_spec;
  rq_jobs : job array;
}

type response = {
  rs_ns : string;
  rs_chunk : int;
  rs_results : (Measurement.t array, string) result;
}

(** {2 Knobs} *)

val env_procs : unit -> int
(** [MP_PROCS] parsed: [0] (the default, and anything unparsable) means
    in-process execution, unchanged behavior; [N] means a pool of [N]
    workers; ["auto"] picks [detected_cores / pool_size] (at least 1).
    Always [0] inside a worker process — workers never spawn process
    pools of their own. *)

val env_timeout_s : unit -> float
(** [MP_PROC_TIMEOUT_S] parsed as a positive number of seconds per
    shard exchange (default 300). A worker that exceeds it is treated
    as crashed. *)

val env_hosts : unit -> (string * int) list
(** [MP_HOSTS] parsed: a comma-separated list of [host:port] remote
    workers (the split is on the last colon, so bare IPv6 literals
    work); entries that don't parse are dropped. Always [[]] inside a
    worker process — remote workers never chain to further remotes. *)

val parse_hosts : string -> (string * int) list
(** The parser under {!env_hosts}, exposed for the CLI and tests. *)

(** What an idle slot does once the shared queue is empty but chunks
    are still outstanding elsewhere. [Spec_force] is a test hook:
    duplicate eagerly whenever a slot merely has spare window,
    guaranteeing duplicate completions so the first-result-wins merge
    is exercised deterministically. *)
type speculate = Spec_off | Spec_on | Spec_force

val env_speculate : unit -> speculate
(** [MP_SPECULATE] parsed: [off]/[0]/[false] → [Spec_off], [force] →
    [Spec_force], anything else (including unset) → [Spec_on]. *)

val default_chunk_jobs : jobs:int -> slots:int -> inflight:int -> int
(** The chunk-size heuristic: jobs per chunk such that each slot's
    pipeline window of [inflight] frames refills about four times over
    a balanced batch ([jobs / (slots * inflight * 4)], at least 1) —
    enough granularity for fast slots to drain a skewed shard, coarse
    enough to amortize framing. {!run_jobs} applies it with a window
    of 2: one chunk computing, one in the pipe. *)

(** {3 Per-slot telemetry}

    Cumulative per slot label ([proc:N] or [host:port]) over every
    sharded batch in the process. *)

type slot_stat = {
  sl_jobs : int;  (** jobs whose first-accepted result came from here *)
  sl_chunks : int;  (** chunks whose first-accepted result came from here *)
  sl_speculated : int;  (** duplicate chunk copies dispatched to this slot *)
  sl_cancelled : int;
      (** completions discarded because a sibling's copy won *)
  sl_busy_s : float;  (** wall time with at least one chunk in flight here *)
  sl_wall_s : float;  (** wall time of the batches this slot took part in *)
}

val slot_stats : unit -> (string * slot_stat) list
(** Sorted by label. Empty until a sharded batch has run. *)

val reset_slot_stats : unit -> unit

val chunks_speculated : unit -> int
(** Sum of [sl_speculated] over all slots. *)

val chunks_cancelled : unit -> int
(** Sum of [sl_cancelled] over all slots. *)

val in_worker_process : unit -> bool
(** True when this process was spawned as a shard worker (subprocess
    or TCP) or is currently serving remote coordinators via
    {!serve}. *)

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
    serve request frames until EOF, then [exit 0]. If it carries
    [MP_NET_WORKER] (["port"] or ["host:port"]): {!serve} on that
    address, then [exit 0]. Never returns in a worker process; a no-op
    otherwise. Called at [Machine] module-init, after the executor is
    installed. *)

val serve : ?host:string -> port:int -> unit -> unit
(** Run this process as a persistent TCP worker: bind [host:port]
    (default [0.0.0.0], [SO_REUSEADDR]), accept one coordinator at a
    time, require the namespace handshake on each connection, then run
    the same frame loop the subprocess worker runs. SIGTERM/SIGINT
    request a graceful drain: an in-flight request finishes and its
    response is delivered, then [serve] returns (within 0.25 s when
    idle). The process must not fan out while serving
    ({!env_procs}/{!env_hosts} report 0/[[]] for its lifetime). *)

val spawn_worker :
  ?env:(string * string) list -> ?host:string -> ?ready_timeout_s:float ->
  port:int -> unit -> int
(** Spawn a loopback TCP worker — a re-exec of [Sys.executable_name]
    with [MP_NET_WORKER] set — wait until [host:port] (default
    [127.0.0.1]) accepts connections, and return its pid. Raises
    [Failure] (after killing the child) if the port is not accepting
    within [ready_timeout_s] (default 30). Used by the bench harness
    and tests; the caller owns the pid (SIGTERM + waitpid to stop
    it). *)

(** {2 Coordinator side} *)

type pool

val create_pool :
  ?env:(string * string) list -> ?timeout_s:float ->
  ?hosts:(string * int) list -> int -> pool
(** A mixed pool: [n] worker subprocesses (re-execs of
    [Sys.executable_name]; none when [n = 0]) in slots [0..n-1],
    followed by one TCP peer per [hosts] entry, each peer required to
    echo the namespace handshake. Nothing is spawned or connected until
    a slot's first dispatch. [env] adds environment overrides for the
    subprocess workers — the bench harness uses [("MP_POOL_SIZE", d)]
    to control each worker's domain count; the worker flag,
    [MP_PROCS=0] and [MP_HOSTS=""] are always set (remote peers bring
    their own environment). [timeout_s] defaults to
    {!env_timeout_s}. *)

val pool_size : pool -> int
(** Local + remote slots — the [shards] the placement fold sees. *)

val workers : pool -> Mp_util.Workerpool.t
(** The slots, exposed for tests (opening a slot and crash injection
    via {!Mp_util.Workerpool.kill}). *)

val shutdown_pool : pool -> unit
(** Shut down subprocess workers and close every remote connection.
    Idempotent. *)

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
    from the longest sibling queue. Once queues are dry, idle slots
    re-dispatch the oldest outstanding chunk (per {!env_speculate})
    and the first response wins — a straggler or silently-dead slot
    no longer gates the batch, and a crashed slot's chunks re-enter
    the queue instead of falling back to the coordinator. [None]
    positions remain only for chunks no live slot could complete
    (deterministic executor failure, unmarshalable request, or every
    slot dead).

    The result is bit-identical to in-process execution, and
    dispatches are serialized process-wide (one conversation per slot
    at a time). *)

(** {2 The shared pool} *)

val get_pool : ?hosts:(string * int) list -> int -> pool
(** The process-wide pool, created on first use and grown (never
    shrunk) to at least [n] local workers. When the requested [hosts]
    differ from the live pool's the pool is replaced (shard placement
    depends on the slot count, so a stale topology must not be
    served). Shut down at exit. *)

val global_size : unit -> int
(** Local workers in the shared pool ([0] when it was never created) —
    the [procs_effective] harness metric. *)

val global_remote_size : unit -> int
(** Remote peers in the shared pool — the [hosts_effective] harness
    metric. *)

val shutdown_global : unit -> unit
(** Shut down the shared pool now — subprocesses and remote
    connections both; idempotent. Also registered [at_exit]. *)
