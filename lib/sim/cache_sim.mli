(** Functional simulation of one core's cache hierarchy: three
    set-associative LRU levels plus a sequential-stream prefetcher
    (which the paper's randomised streams are designed to defeat). The
    hierarchy is shared by the core's hardware threads, as on POWER7.

    Two engines implement identical replacement semantics. The default
    {e packed} model keeps each level's sets in one flat int array with
    precomputed set shift/mask, rank-indexed counters, an MRU fast path
    and a rolling FNV digest of the whole state, so dense memory
    simulation and boundary fingerprinting are cheap. The original
    {e list} model is retained as the bit-exactness oracle
    ([MP_CACHE_MODEL=list], {!Cache_sim_list}). *)

type model = Packed | List_ref

val model_to_string : model -> string

val default_model : unit -> model
(** The model {!create} uses when none is given: [Packed] unless
    [MP_CACHE_MODEL=list] selects the reference model. Read per call,
    so tests can flip it between runs. Raises [Invalid_argument] on
    any value other than [packed] or [list]. *)

type t

val create : ?model:model -> Mp_uarch.Uarch_def.t -> t
(** [model] defaults to {!default_model}[ ()]. *)

val model : t -> model

val access : t -> addr:int -> store:bool -> Mp_uarch.Cache_geometry.level
(** Perform one access; returns the data-source level (the deepest
    level that had to supply the line) and fills all upper levels.
    Stores allocate like loads (write-allocate). *)

val hits : t -> Mp_uarch.Cache_geometry.level -> int
(** Accesses sourced from a level since creation (demand only;
    prefetch fills are not counted). *)

val prefetches_issued : t -> int

val prefetch_streak : t -> int
(** The live sequential-stride streak, saturated at 3 — the only bound
    the prefetcher consults, so saturation keeps behavioural state
    periodic on endless sequential walks. *)

val reset : t -> unit
(** Return to the state {!create} builds: every line empty, counters
    and prefetcher cleared, the same digest and fingerprint. Lets one
    cache serve run after run without reallocating its arrays. *)

val reset_stats : t -> unit
(** Clear counters but keep cache contents (for warmup/measure
    separation). *)

val stats_snapshot : t -> int array
(** The demand counters (one per level, in {!Mp_uarch.Cache_geometry.all_levels}
    order) followed by the prefetch count — a baseline for {!credit}. *)

val credit : t -> times:int -> since:int array -> unit
(** [credit t ~times ~since] adds [times] copies of the stat delta
    accumulated since the {!stats_snapshot} [since] — how the core
    simulator's exact period skipping accounts the cache activity of
    the loop iterations it does not replay. *)

val add_fingerprint : t -> Buffer.t -> unit
(** Append a fingerprint of the cache's {e behavioural} state — line
    placement and MRU order at every level plus the stream prefetcher's
    last line and saturated streak — to [buf]; statistics counters are
    excluded. The reference model serializes the full state, so equal
    fingerprints mean equal states. The packed model appends its
    rolling 63-bit digest in O(1): equal states still produce equal
    fingerprints, and distinct states collide with probability ~2^-63
    per compared pair — the one deliberate relaxation of the period
    detector's exactness, confined to memory programs. *)

val rolling_digest : t -> int option
(** The packed model's incrementally maintained digest ([None] for the
    reference model). *)

val digest_consistent : t -> bool
(** Recompute the packed digest from the flat state and compare with
    the rolling value — the incremental-hashing invariant, checked by
    tests after arbitrary access sequences. Always [true] for the
    reference model. *)
