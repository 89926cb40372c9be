(** 64-bit FNV-1a content folding with a splitmix-style finisher.

    Used to build structural content hashes incrementally: start from
    {!seed}, fold fields in a canonical order, and {!finish} the
    accumulator for avalanche. Strings fold length-prefixed so adjacent
    fields cannot alias across a boundary. Deterministic across
    processes and machines (unlike [Hashtbl.hash] on boxed values it
    depends only on the folded bytes), so finished hashes are safe to
    persist in disk-cache keys. *)

type t = int64

val seed : t
(** FNV-1a 64-bit offset basis — the canonical starting accumulator. *)

val byte : t -> int -> t
(** Fold one byte (the low 8 bits of the argument). *)

val int : t -> int -> t
(** Fold a native int as 8 little-endian bytes. *)

val int64 : t -> int64 -> t

val bool : t -> bool -> t

val string : t -> string -> t
(** Fold the length, then every byte. *)

val finish : t -> int64
(** splitmix64 finalizer: full-width avalanche of the accumulator. *)

val to_hex : int64 -> string
(** 16 lowercase hex characters, zero-padded. *)

(** {2 Two accumulators, one pass}

    Folds the same bytes into two accumulators at once — a hash of
    [prefix ^ bytes] and one of [bytes] alone — keeping both 64-bit
    values unboxed, so folding allocates nothing.
    [values] returns exactly what the boxed folds above return for the
    same bytes: [string seed prefix] then the bytes, and [seed] then the
    bytes. *)

type pair

val pair : prefix:string -> pair

val values : pair -> t * t
(** Both accumulators, prefixed first; apply {!finish} to each. *)

val pair_byte : pair -> int -> unit
(** As {!byte}, into both. *)

val pair_int : pair -> int -> unit
(** As {!int}, into both. *)

val pair_int64 : pair -> int64 -> unit
(** As {!int64}, into both. *)

val pair_string : pair -> string -> unit
(** As {!string}, into both. *)

(** {2 Native-int variant}

    Allocation-free folding on OCaml's untagged native ints, for hashes
    recomputed inside simulator hot loops. Same multiply-xor/avalanche
    structure with truncated constants — deterministic across processes
    on a given word size, but {e not} value-compatible with the int64
    variant above. *)

val seed_int : int
(** Starting accumulator for the native-int folds. *)

val fold_int : int -> int -> int
(** Fold one native int in a single multiply-xor step. *)

val finish_int : int -> int
(** Splitmix-style avalanche of a native-int accumulator. *)
