(** Reference cache model: the original list-based implementation of
    {!Cache_sim}, kept as the bit-exactness oracle for the packed
    default and selected there with [MP_CACHE_MODEL=list]. Use
    {!Cache_sim} everywhere except equivalence tests — this module is
    deliberately unoptimised. *)

type t

val create : Mp_uarch.Uarch_def.t -> t

val access : t -> addr:int -> store:bool -> Mp_uarch.Cache_geometry.level

val hits : t -> Mp_uarch.Cache_geometry.level -> int

val prefetches_issued : t -> int

val prefetch_streak : t -> int
(** The live sequential-stride streak, saturated at 3 (the only bound
    the prefetcher consults). *)

val reset : t -> unit
(** Back to the state {!create} builds. *)

val reset_stats : t -> unit

val stats_snapshot : t -> int array

val credit : t -> times:int -> since:int array -> unit

val add_fingerprint : t -> Buffer.t -> unit
(** Full serialization of the behavioural state: every set's
    MRU-ordered line addresses plus the prefetcher registers —
    O(sets x ways) per call, which is exactly what the packed model's
    rolling digest replaces. *)
