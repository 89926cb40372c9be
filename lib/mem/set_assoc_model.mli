(** The analytical set-associative cache model (paper Section 2.1.3).

    The model statically guarantees the data-source level of every load
    in an endless loop, with no design-space exploration:

    - a memory access is guaranteed to {e hit} level [L] in steady
      state when the loop cyclically touches more than [associativity]
      lines that share a set at every level above [L], while mapping to
      at most [associativity] lines per set at [L];
    - accesses of different target levels are kept from interfering by
      assigning them {e disjoint} L1 set indices (because each level's
      set field extends the previous one's — Figure 3b — disjoint L1
      sets imply disjoint sets at every level).

    Streams are randomised (line order and phase) to minimise hardware
    prefetcher interference, as prescribed by the paper. *)

type level = Mp_uarch.Cache_geometry.level

type stream = {
  target : level;
  addresses : int array;
  (** the cyclic address sequence one load instruction walks *)
}

type t
(** A memory plan: a requested distribution over hierarchy levels bound
    to a concrete disjoint-set layout. *)

val create :
  uarch:Mp_uarch.Uarch_def.t ->
  ?partition:int * int ->
  distribution:(level * float) list ->
  unit ->
  t
(** [create ~uarch ~distribution ()] builds a plan. [distribution]
    weights must be non-negative and sum to a positive value (they are
    normalised). [partition = (thread, n_threads)] carves the L1 set
    space so that hardware threads sharing a cache do not disturb each
    other's guarantees; default [(0, 1)]. Raises [Invalid_argument] if
    the L1 set space is too small for the requested partition. *)

val distribution : t -> (level * float) list
(** The normalised request, including zero-weight levels. *)

val sample_level : t -> Mp_util.Rng.t -> level
(** Draw a target level according to the distribution. *)

val stream : t -> Mp_util.Rng.t -> level -> stream
(** A fresh randomised cyclic stream guaranteed to be sourced from
    [level]. Distinct calls share the plan's line pools (so a loop with
    many loads stays within the guaranteed working set) but receive
    independent phases/orders. *)

val coordinated_streams :
  t -> Mp_util.Rng.t -> targets:level array -> stream array
(** [coordinated_streams plan rng ~targets] builds one stream per
    memory instruction of a loop body (given in body order) such that,
    per level, the {e interleaved} runtime access sequence walks the
    level's pool in one global cyclic rotation. This is what makes the
    steady-state guarantee hold when several instructions target the
    same level: every re-access of a line is separated by the whole
    pool, so levels above the target always miss and the target always
    hits. The rotation order is shuffled once (per plan instantiation)
    to defeat stride prefetchers. Instructions whose streams are equal
    (the m-th and (m+p)-th on a level whose pool has p lines) share one
    stream value; callers must not mutate [addresses]. *)

val streams_for_loop :
  t -> Mp_util.Rng.t -> n:int -> stream array
(** [streams_for_loop plan rng ~n] returns one stream per memory
    instruction such that the instruction-count split matches the
    plan's distribution as closely as rounding allows (largest-
    remainder apportionment), in randomised order. *)

val sequential_stream :
  uarch:Mp_uarch.Uarch_def.t ->
  target:level ->
  stride_lines:int ->
  stream
(** A deterministic STREAM-like walk for bandwidth sweeps, independent
    of any plan: addresses ascend by [stride_lines] cache lines and the
    number of distinct lines is sized from the hierarchy (half the
    target's capacity for [L1]; twice the capacity of the level above
    for deeper targets, so at unit stride the walk thrashes every level
    above the target and hits the target itself). Unlike {!stream}
    nothing is randomised — the hardware-prefetcher-friendly ordering
    is the point of the sweep. Larger strides concentrate the walk into
    fewer sets, dragging the source level deeper: the roofline curve a
    stride sweep is meant to trace. *)

val pool_lines : t -> level -> int array
(** The line addresses backing a level's pool (for inspection/tests). *)

val footprint_bytes : t -> int
(** Total bytes touched by all pools. *)
