(** Steady-state replay: closed-form measurement steps compiled from
    fingerprinted periods.

    {!Core_sim}'s period detector proves, by full-state fingerprint
    {e equality}, that the machine state repeats at an iteration
    boundary. A run that detected a period therefore factors exactly
    into head + k·period + tail, with an integer per-period counter
    delta. This table stores each run's final activity together with
    that delta; a later measurement of the same structural program —
    a different batch, a later bootstrap round, a GA re-evaluation, a
    different window length — is answered by [base + k·delta] without
    simulating warmup-to-steady-state at all. Replayed activities are
    bit-identical to dense simulation (asserted by the test suite and
    the replay benchmark).

    Records are keyed on the uarch fingerprint, SMT mode, warmup,
    effective memory latency, and each per-thread program's name-free
    {!Mp_codegen.Ir.body_hash}; programs that consume per-run
    randomness (memory address streams) additionally fold the RNG
    inputs via [salt]. The measured window is deliberately {e not}
    part of the key — one record serves every admissible window
    through the period step. Counters are stored by opcode name, so a
    record reifies bit-identically against any machine's intern table
    ({!Power_sim} sums energies in name order).

    Records persist through the measurement cache's own entry
    functions ({!Measurement_cache.write_entry}) into its replay store
    ([MP_CACHE_DIR]/replay, same [MP_CACHE] gate, same 2-hex-digit
    sharding, same binary-stamped namespace), so warm runs skip even
    their first-period simulation, and the cache's housekeeping covers
    them: stale-build records are pruned when a cache is created, and
    {!Measurement_cache.gc} and [MP_CACHE_MAX_MB] bound them together
    with the measurements. *)

type t

val create : ?disk_dir:string -> unit -> t
(** An empty table. [disk_dir] (absent by default) adds persistent
    storage rooted at that directory — tests use isolated in-memory
    tables. *)

val global : unit -> t
(** The process-wide table {!Machine.create} attaches by default,
    created on first use with the environment's disk configuration
    ({!Measurement_cache.env_disk}). *)

val length : t -> int
(** Number of in-memory records. *)

val key :
  uarch:string ->
  smt:int ->
  warmup:int ->
  mem_latency:int ->
  ?salt:string ->
  Mp_codegen.Ir.t array ->
  string
(** Digest of everything a run's activity depends on except the
    measured window. [uarch] is a
    {!Measurement_cache.uarch_fingerprint}; [mem_latency] the
    {e effective} latency (base, or inflated by bandwidth contention);
    [salt] folds the per-run RNG inputs and must be supplied exactly
    when some per-thread program consumes randomness (memory address
    streams). The array holds the per-thread programs, hashed by
    {!Mp_codegen.Ir.body_hash} so records are shared across program
    names. *)

val find :
  t ->
  opmap:Core_sim.opmap ->
  daf:float ->
  warmup:int ->
  measure:int ->
  string ->
  Core_sim.activity option
(** The activity of a [measure]-iteration window reconstructed from a
    stored record: a base snapshot at the same window verbatim, or any
    base plus an integral number of period steps. A window is
    admissible from base [b] when [(measure - b) mod period_iters = 0]
    and both totals (warmup+measure) reach the period's recorded
    minimum — below it the run would end before the fingerprint match,
    so its counters are not of head + k·period + tail form. Counts a
    hit or a miss. *)

val record :
  t ->
  opmap:Core_sim.opmap ->
  measure:int ->
  string ->
  Core_sim.activity ->
  Core_sim.period_delta option ->
  unit
(** Store a dense run's final activity (and, when the run skipped a
    period, the per-period delta) under the key. Merging keeps one
    base per distinct window (bounded) and the first period delta;
    concurrent writers store identical data, so first-writer-wins is
    safe. Persisted when the table has a disk directory. *)

val hits : unit -> int
(** Process-wide count of measurements served from replay records.
    Monotone telemetry (exported to BENCH_sim.json), never part of any
    activity. *)

val misses : unit -> int
(** Process-wide count of {!find} calls that fell through to dense
    simulation. *)
