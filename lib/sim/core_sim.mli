(** Cycle-stepped scoreboard model of one core running one deployed
    micro-benchmark copy per hardware thread.

    The model honours the properties micro-benchmarks are designed to
    control: dispatch width (shared across SMT threads, round-robin),
    per-pipe occupancy and multiplicity, register dependency latencies,
    per-access memory latency from the cache simulator, a per-thread
    in-flight window, and a 2-bit branch predictor with misprediction
    bubbles. It also records the activity the hidden power model needs
    (per-opcode issue counts, pipe opcode-switch events). *)

type opmap
(** Dense opcode-id interning shared by a set of runs. It also keeps
    each opcode's decoded resource entry (pipe uses, masks, pipe class,
    latency), so deploying an opcode again does not re-derive it. *)

val opmap_create : unit -> opmap
val opmap_size : opmap -> int
val opmap_name : opmap -> int -> string

val name_ranks : opmap -> int array
(** [ranks.(id)] is the position of opcode [id]'s name among every
    interned name in [String.compare] order, so comparing ranks orders
    ids by name. Cached; rebuilt once the table has grown. *)

val intern : opmap -> string -> int
(** Id of a mnemonic, interning it if new. Domain-safe (the table is
    locked), but id assignment then depends on arrival order: callers
    that need reproducible ids must intern deterministically before
    fanning work out (see {!Machine.run_batch}). *)

type dprog
(** A program deployed for one hardware thread: operands resolved to
    dense register ids and memory instructions bound to concrete
    address streams. *)

val deploy :
  uarch:Mp_uarch.Uarch_def.t ->
  opmap:opmap ->
  streams:(int -> int array) ->
  Mp_codegen.Ir.t ->
  dprog
(** [streams idx] supplies the cyclic address stream for the memory
    instruction at body index [idx] (raises if consulted for an index
    the caller did not prepare). An implicit loop-closing [bdnz] is
    appended to the body. Each opcode's resource entry is decoded once
    into [opmap] for [uarch] and shared by later deploys. The deploy
    holds [opmap]'s lock throughout, so [streams] must not intern.
    Raises [Invalid_argument] for a register outside its file. *)

val deploy_threads :
  uarch:Mp_uarch.Uarch_def.t ->
  opmap:opmap ->
  streams:(int -> int -> int array) ->
  Mp_codegen.Ir.t array ->
  dprog array
(** One deploy per hardware thread: element [t] is what
    [deploy ~streams:(streams t)] returns for program [t], taken under
    one hold of [opmap]'s lock. A thread whose program is physically
    the same as an earlier thread's shares that deploy's instructions
    except the streamed ones, which it binds to its own streams; with no
    streamed instruction it shares the whole deployed program. *)

val intern_program : opmap -> Mp_codegen.Ir.t -> unit
(** Intern every opcode {!deploy} would meet in [p], in the order it
    would meet them (the body's, then the loop-closing [bdnz]), under
    one hold of the lock; a run of one opcode is looked up once. *)

type activity = {
  measured_cycles : int;
  threads : Measurement.counters array;
  op_issues : int array;        (** per opmap id, all threads *)
  level_loads : int array;      (** demand loads per level L1,L2,L3,MEM *)
  switch_events : int;          (** dispatch-bus opcode transitions (total) *)
  transitions : (int * int * int) list;
      (** per ordered opcode pair (prev id, next id, count) — the
          order-dependent switching activity on the dispatch bus *)
  daf : float;                  (** mean data-activity factor of the programs *)
  prefetches : int;
}

val run :
  uarch:Mp_uarch.Uarch_def.t ->
  opmap:opmap ->
  ?mem_latency:int ->
  ?warmup:int ->
  ?measure:int ->
  ?period:bool ->
  dprog array ->
  activity
(** Run one copy per thread for [warmup] loop iterations (default 1)
    followed by [measure] iterations (default 2) during which counters
    accumulate. [mem_latency] overrides the definition's base main-
    memory latency (used for chip-level bandwidth contention).

    [period] enables exact steady-state period skipping (default
    [true]). When the full microarchitectural state repeats at an
    iteration boundary inside the measured window, the remaining whole
    periods are credited by exact counter-delta scaling instead of
    being simulated; the returned {!activity} is bit-identical to a
    dense run either way, only wall-clock time differs.

    A run borrows its calendars and packed cache from a per-domain
    arena and returns them when it returns, so a warm run allocates
    nothing in the major heap. *)

type period_delta = {
  pd_period_iters : int;  (** loop iterations per period (every thread) *)
  pd_cycles : int;        (** cycles per period *)
  pd_min_total : int;
      (** smallest warmup+measure total the delta extends to: the
          largest per-thread iteration count at the fingerprint match,
          plus one (below it the run would have stopped before
          reaching the matched state) *)
  pd_counters : int array array;
      (** per thread: instrs, dispatched, fxu, lsu, vsu, bru, st, l1,
          l2, l3, memc — {!Measurement.counters} minus cycles, in
          order *)
  pd_op_issues : (int * int) list;  (** (opmap id, delta), sparse *)
  pd_level_loads : int array;
  pd_switch : int;
  pd_transitions : (int * int * int) list;
      (** (prev id, next id, delta) *)
  pd_prefetches : int;
}
(** Exactly one fingerprinted period's worth of every measured
    counter, captured before the period skip credits it. Adding [k]
    times this delta to a run's {!activity} reproduces the activity of
    a run with [k * pd_period_iters] more (or, negated, fewer)
    measured iterations, bit-for-bit — the closed-form step behind
    {!Replay}, which also documents the validity conditions. Only
    captured when every thread advances the same number of iterations
    per period. *)

val run_ex :
  uarch:Mp_uarch.Uarch_def.t ->
  opmap:opmap ->
  ?mem_latency:int ->
  ?warmup:int ->
  ?measure:int ->
  ?period:bool ->
  dprog array ->
  activity * period_delta option
(** {!run}, additionally returning the per-period counter delta when a
    steady-state period was fingerprinted and skipped ([None] for
    dense runs, aperiodic programs, windows too short to skip, or
    unequal per-thread iteration rates). *)

val period_hits : unit -> int
(** Process-wide count of runs in which a steady-state period was
    detected and skipped. Telemetry only — never part of {!activity}. *)

val cycles_skipped : unit -> int
(** Process-wide total of simulated cycles elided by period skipping. *)
