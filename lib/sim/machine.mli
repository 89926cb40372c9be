(** The measurement harness — the paper's experimental platform in
    Section 3. Deploys one copy of a micro-benchmark per hardware
    thread (pinned, as the paper pins to logical CPUs), runs to steady
    state, and returns PMC counters plus power-sensor samples.

    All cores execute identical copies, so one core is simulated in
    detail and the chip-level view is derived by replication plus a
    shared-memory-bandwidth contention model (re-simulating with an
    inflated memory latency when aggregate demand exceeds the chip's
    sustainable bandwidth). *)

type t

val create :
  ?seed:int -> ?cache:bool -> ?replay:bool -> Mp_uarch.Uarch_def.t -> t
(** A machine with its ground-truth power behaviour. [seed] controls
    sensor noise and stream randomisation (default 2012). [cache]
    (default [true]) memoizes measurements content-addressed on
    (uarch, program, configuration, seed, warmup/measure) —
    measurements are deterministic, so memoization is observationally
    invisible apart from wall-clock time. The cache also persists to
    disk unless the [MP_CACHE=off] environment variable disables it
    ([MP_CACHE_DIR] names the directory, default [_mp_cache]), so
    repeated harness invocations of the same build skip
    already-simulated points — see {!Measurement_cache.env_disk}.

    [replay] (default [true]) attaches the process-global
    {!Replay} table: runs that fingerprinted a steady-state period
    store a closed-form counter step, and later measurements of the
    same structural program — on this machine {e or any other},
    whatever the window — skip warmup-to-steady-state entirely.
    Replayed measurements are bit-identical to dense simulation, so
    the layer is observationally invisible apart from wall-clock time;
    [~replay:false] disables it per machine (the benchmarks' dense
    reference machines need genuinely dense runs).

    Programs whose generating passes are all seed-independent (no pass
    drew from an rng and no memory model; see
    {!Mp_codegen.Passes.seed_independent}) measure bit-identically on
    machines with any [seed]: their noise rng is canonical and their
    cache entries drop the seed from the key, so warm disk caches are
    shared across seeds. *)

val default_measure : int
(** The default measured window in loop iterations per thread (8) —
    the one constant every [?measure] default below inherits. Long
    windows are nearly free for periodic kernels: exact fixed-point
    pipe arithmetic makes every bounded kernel's steady state exactly
    periodic, and the period detector elides the repeats. *)

val uarch : t -> Mp_uarch.Uarch_def.t

val measurement_cache : t -> Measurement_cache.t option
(** The machine's memoization table ([None] when created with
    [~cache:false]); expose it to read hit-rate statistics. *)

val run :
  ?warmup:int -> ?measure:int -> ?period:bool ->
  t -> Mp_uarch.Uarch_def.config -> Mp_codegen.Ir.t ->
  Measurement.t
(** Deploy and measure one micro-benchmark. [warmup]/[measure] are loop
    iterations (defaults 1 and {!default_measure}). [period] forwards to
    {!Core_sim.run}'s exact steady-state period skipping (default on);
    results are bit-identical either way, so the flag only affects
    wall-clock time and is deliberately not part of the
    measurement-cache key. *)

val run_batch :
  ?warmup:int -> ?measure:int -> ?period:bool -> ?pool:Mp_util.Parallel.t ->
  ?procs:int -> ?hosts:(string * int) list -> ?shard_pool:Shard_exec.pool ->
  ?dedup:bool ->
  t -> (Mp_uarch.Uarch_def.config * Mp_codegen.Ir.t) list ->
  Measurement.t list
(** Measure a list of (configuration, program) jobs, fanned across
    [pool] (default: {!Mp_util.Parallel.global}). Results come back in
    job order and are {e bit-identical} to running the same jobs
    serially through {!run} on a fresh machine: per-run RNGs are seeded
    from (seed, name, configuration) and opcode ids are pre-interned in
    job order before the fan-out, so no float is summed in a different
    order. Jobs carry a cost hint (threads × loop size) so the
    work-stealing pool starts the heaviest simulations first — a
    scheduling detail with no observable effect on results.

    [dedup] (default [true]) collapses jobs that share a measurement
    key within the batch: each distinct point is simulated once and the
    result is scattered back to every duplicate position. Measurements
    are deterministic given the key, so collapsing is observationally
    invisible apart from wall-clock time; {!batch_dup_collapsed} counts
    the positions served by a twin.

    [procs] layers a {e process-level} fan-out above the domain pool:
    deduplicated jobs are sharded by structural hash across
    {!Shard_exec} worker subprocesses, each running its own domain
    pool. [0] (the default when [MP_PROCS] is unset) keeps everything
    in-process — behavior unchanged; results with any [procs] value
    are bit-identical to in-process execution. The fan-out is adaptive
    (thin batches stay in-process, same {!Mp_util.Parallel.worthwhile}
    predicate) and crash-tolerant: jobs lost to a dead or wedged
    worker are transparently re-run in-process ({!jobs_recovered}
    counts them). [hosts] adds remote TCP workers (default: the
    [MP_HOSTS] knob) to the same pool — slots beyond the [procs] local
    subprocesses — under the identical placement fold and crash/
    recovery contract; a lost peer degrades to a slower batch exactly
    like a lost subprocess. [shard_pool] supplies an explicit pool (the
    bench harness builds per-combination pools) and then carries its
    own peers; otherwise the shared process-wide pool of [procs]
    workers plus [hosts] peers serves. Dispatch is work-conserving and
    results stay bit-identical, see {!Shard_exec.run_jobs}. *)

val run_heterogeneous :
  ?warmup:int -> ?measure:int -> ?period:bool ->
  t -> Mp_uarch.Uarch_def.config -> Mp_codegen.Ir.t list ->
  Measurement.t
(** Deploy a {e different} micro-benchmark on each hardware thread of a
    core (the list length must equal the SMT mode; every core runs the
    same per-thread assignment). This is the heterogeneous-workload
    deployment the paper's Section 6 leaves to future work. *)

val run_heterogeneous_batch :
  ?warmup:int -> ?measure:int -> ?period:bool -> ?pool:Mp_util.Parallel.t ->
  ?procs:int -> ?hosts:(string * int) list -> ?shard_pool:Shard_exec.pool ->
  ?dedup:bool ->
  t -> (Mp_uarch.Uarch_def.config * Mp_codegen.Ir.t list) list ->
  Measurement.t list
(** {!run_heterogeneous} over a whole candidate population as one
    fan-out across [pool], through the same batch path as {!run_batch}
    — same determinism contract, [dedup] duplicate collapsing and
    [procs]/[hosts]/[shard_pool] process sharding: results in job
    order, bit-identical to the serial loop (all per-thread programs
    are pre-interned in job order before any worker runs). Every job's
    program count is checked against its SMT mode before anything
    runs; one mismatch raises [Invalid_argument], in-process or
    sharded alike. *)

val batch_dup_collapsed : unit -> int
(** Process-wide count of batch positions served by collapsing onto a
    duplicate within the same batch (see [dedup] on {!run_batch}).
    Monotonic; callers wanting a per-phase figure take a delta. *)

val spec : t -> Shard_exec.machine_spec
(** The machine's wire description — what a shard worker needs to
    rebuild an equivalent machine on its side. *)

val jobs_recovered : unit -> int
(** Process-wide count of batch jobs whose shard worker was lost
    (crash, timeout, garbage frame) and which were transparently
    re-run in-process. Monotonic; [0] in a healthy run. *)

val run_phases :
  ?pool:Mp_util.Parallel.t ->
  t -> Mp_uarch.Uarch_def.config -> (Mp_codegen.Ir.t * float) list ->
  Measurement.t
(** Measure a phased workload: each [(program, weight)] runs as its own
    steady-state region and the counters/power combine by weight — how
    the SPEC-surrogate benchmarks execute. The power trace concatenates
    the phase traces (Figure 5a's time axis). Phases are measured as one
    {!run_batch} over [pool]. *)

val idle_reading : t -> Mp_uarch.Uarch_def.config -> float
(** Sensor reading of the enabled-but-idle machine. *)

val baseline_reading : t -> float
(** Sensor reading in the deepest idle state (all cores folded) — the
    workload-independent chip power. The EnergyScale firmware exposes
    this state on the real platform. *)
