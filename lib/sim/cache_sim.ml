open Mp_uarch

(* Two interchangeable engines stand behind [t]:

   - [Packed] (the default): every level's sets live in one flat int
     array (sets x ways, MRU-first within each set), the set index is a
     precomputed shift/mask, demand counters are a rank-indexed int
     array, and a rolling FNV digest of the whole hierarchy is
     maintained incrementally so a boundary fingerprint appends a
     fixed-size digest instead of serializing O(sets x ways) state.
   - [List_ref]: the original list-of-levels model ([Cache_sim_list]),
     kept as the bit-exactness oracle and selected with
     [MP_CACHE_MODEL=list].

   Replacement semantics are identical by construction: both keep each
   set MRU-first with -1 for an empty way, probe linearly, rotate a hit
   to the front, shift a fill in at the front evicting the LRU way,
   walk levels outside-in sourcing from the first hit and filling every
   level above it, and run the same saturating sequential-stream
   prefetcher. The only behavioural difference is the fingerprint
   encoding: the reference serializes the full state (matching means
   equality), the packed model appends its 63-bit digest (matching
   means equality up to a ~2^-63 hash collision per boundary pair).
   Test/test_cache_model.ml holds the equivalence properties. *)

type model = Packed | List_ref

let model_to_string = function Packed -> "packed" | List_ref -> "list"

let model_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "packed" | "fast" -> Some Packed
  | "list" | "ref" | "reference" -> Some List_ref
  | _ -> None

(* consulted at every [create], not latched at startup: tests and
   benches flip the variable between runs with [Unix.putenv] *)
let default_model () =
  match Sys.getenv_opt "MP_CACHE_MODEL" with
  | None -> Packed
  | Some s ->
    (match model_of_string s with
     | Some m -> m
     | None ->
       invalid_arg
         (Printf.sprintf "MP_CACHE_MODEL=%S (expected packed|list)" s))

(* ----- packed model -------------------------------------------------------- *)

type plevel = {
  geom : Cache_geometry.t;
  rank : int;            (* Cache_geometry.level_rank geom.level *)
  ways : int;
  set_shift : int;
  set_mask : int;
  lines : int array;     (* sets x ways, MRU-first per set; -1 = empty *)
  set_hash : int array;  (* per-set content hash; 0 until first touch *)
  salt : int;            (* folded with the set index: distinct per level *)
}

type packed = {
  plevels : plevel array;        (* L1, L2, L3 in order *)
  counts : int array;            (* demand hits, indexed by level rank *)
  mutable p_last : int;          (* last line accessed *)
  mutable p_streak : int;        (* consecutive +1-line strides, saturated *)
  mutable p_count : int;
  line_mask : int;               (* addr land mask = line address *)
  line_step : int;               (* line_bytes of L1 *)
  mutable digest : int;          (* xor of every level's set_hash entries *)
}

type t = P of packed | R of Cache_sim_list.t

let n_ranks = List.length Cache_geometry.all_levels

let rank_level = Array.of_list Cache_geometry.all_levels

let make_plevel geom =
  let sets = Cache_geometry.sets geom in
  let ways = geom.Cache_geometry.associativity in
  let rank = Cache_geometry.level_rank geom.Cache_geometry.level in
  {
    geom;
    rank;
    ways;
    set_shift = Cache_geometry.set_shift geom;
    set_mask = Cache_geometry.set_mask geom;
    lines = Array.make (sets * ways) (-1);
    set_hash = Array.make sets 0;
    (* spaced far beyond any set count, so (salt + set) never collides
       across levels and equal-content sets cannot cancel in the xor *)
    salt = (rank + 1) * 0x9E3779B9;
  }

let create_packed (uarch : Uarch_def.t) =
  let plevels = Array.of_list (List.map make_plevel uarch.Uarch_def.caches) in
  let line_mask, line_step =
    if Array.length plevels = 0 then (-1, 128)
    else
      let lb = plevels.(0).geom.Cache_geometry.line_bytes in
      (lnot (lb - 1), lb)
  in
  {
    plevels;
    counts = Array.make n_ranks 0;
    p_last = min_int;
    p_streak = 0;
    p_count = 0;
    line_mask;
    line_step;
    digest = 0;
  }

(* Content hash of one set: an FNV fold over the MRU-ordered ways,
   seeded with (salt + set) so position in the hierarchy is part of the
   content. Untouched sets keep hash 0 without ever computing it: lines
   never return to all-empty, so 0 consistently means "all ways -1"
   (see [digest_consistent], which checks exactly that). *)
let set_hash_of lvl set =
  let off = set * lvl.ways in
  let h = ref (Mp_util.Fnv.fold_int Mp_util.Fnv.seed_int (lvl.salt + set)) in
  for w = off to off + lvl.ways - 1 do
    h := Mp_util.Fnv.fold_int !h lvl.lines.(w)
  done;
  Mp_util.Fnv.finish_int !h

(* A set changed: re-hash its ways and roll the global digest. The xor
   removes the set's old contribution and adds the new one, so the
   digest stays "xor of all per-set hashes" under any mutation order. *)
let retouch c lvl set =
  let h = set_hash_of lvl set in
  c.digest <- c.digest lxor lvl.set_hash.(set) lxor h;
  lvl.set_hash.(set) <- h

(* The way of [line] among ways [w..ways-1] of the set at [off], or -1.
   Top-level, like [walk] below: a local [let rec] capturing its
   environment would allocate a closure on every access. The int
   annotations keep [=] and the array read monomorphic; inferred
   polymorphic, they would go through the runtime's generic compare. *)
let rec find_way (lines : int array) off ways (line : int) w =
  if w = ways then -1
  else if lines.(off + w) = line then w
  else find_way lines off ways line (w + 1)

(* Probe a level: true if the line is present; on hit, move to MRU.
   Fast path: a line already at way 0 needs no rotation and therefore
   no re-hash — the dominant case for Set_assoc_model resident pools. *)
let probe c lvl line =
  let set = (line lsr lvl.set_shift) land lvl.set_mask in
  let off = set * lvl.ways in
  if lvl.lines.(off) = line then true
  else begin
    let pos = find_way lvl.lines off lvl.ways line 1 in
    if pos < 0 then false
    else begin
      for j = pos downto 1 do
        lvl.lines.(off + j) <- lvl.lines.(off + j - 1)
      done;
      lvl.lines.(off) <- line;
      retouch c lvl set;
      true
    end
  end

let fill c lvl line =
  let set = (line lsr lvl.set_shift) land lvl.set_mask in
  let off = set * lvl.ways in
  for j = lvl.ways - 1 downto 1 do
    lvl.lines.(off + j) <- lvl.lines.(off + j - 1)
  done;
  lvl.lines.(off) <- line;
  retouch c lvl set

(* Walk the hierarchy from level [i] for one line; returns the source
   rank and fills all levels above it (same outside-in order as the
   reference). *)
let rec walk c line i =
  if i = Array.length c.plevels then n_ranks - 1 (* MEM *)
  else begin
    let lvl = c.plevels.(i) in
    if probe c lvl line then lvl.rank
    else begin
      let src = walk c line (i + 1) in
      fill c lvl line;
      src
    end
  end

let lookup c line = walk c line 0

let run_prefetcher c line =
  let step = c.line_step in
  if line = c.p_last + step then begin
    (* saturate at the consulted bound, like the reference model *)
    if c.p_streak < 3 then c.p_streak <- c.p_streak + 1;
    if c.p_streak >= 3 then begin
      (* stream detected: pull the next two lines into the hierarchy *)
      ignore (lookup c (line + step));
      ignore (lookup c (line + (2 * step)));
      c.p_count <- c.p_count + 2
    end
  end
  else c.p_streak <- 0;
  c.p_last <- line

let access_packed c ~addr ~store =
  ignore store;
  let line = addr land c.line_mask in
  let src = lookup c line in
  c.counts.(src) <- c.counts.(src) + 1;
  run_prefetcher c line;
  rank_level.(src)

(* ----- public surface (model dispatch) ------------------------------------- *)

let create ?model (uarch : Uarch_def.t) =
  match (match model with Some m -> m | None -> default_model ()) with
  | Packed -> P (create_packed uarch)
  | List_ref -> R (Cache_sim_list.create uarch)

let model = function P _ -> Packed | R _ -> List_ref

let access t ~addr ~store =
  match t with
  | P c -> access_packed c ~addr ~store
  | R r -> Cache_sim_list.access r ~addr ~store

let hits t level =
  match t with
  | P c -> c.counts.(Cache_geometry.level_rank level)
  | R r -> Cache_sim_list.hits r level

let prefetches_issued = function
  | P c -> c.p_count
  | R r -> Cache_sim_list.prefetches_issued r

let prefetch_streak = function
  | P c -> c.p_streak
  | R r -> Cache_sim_list.prefetch_streak r

let reset_stats = function
  | P c ->
    Array.fill c.counts 0 n_ranks 0;
    c.p_count <- 0
  | R r -> Cache_sim_list.reset_stats r

(* ----- period-skipping support ------------------------------------------- *)

let stats_snapshot = function
  | P c ->
    let a = Array.make (n_ranks + 1) 0 in
    Array.blit c.counts 0 a 0 n_ranks;
    a.(n_ranks) <- c.p_count;
    a
  | R r -> Cache_sim_list.stats_snapshot r

let credit t ~times ~since =
  match t with
  | P c ->
    for i = 0 to n_ranks - 1 do
      c.counts.(i) <- c.counts.(i) + (times * (c.counts.(i) - since.(i)))
    done;
    c.p_count <- c.p_count + (times * (c.p_count - since.(n_ranks)))
  | R r -> Cache_sim_list.credit r ~times ~since

let add_fingerprint t buf =
  match t with
  | P c ->
    (* O(1) regardless of geometry: the rolling digest stands in for
       the full line-by-line serialization of the reference model *)
    Buffer.add_char buf 'Z';
    Buffer.add_string buf (string_of_int c.digest);
    Buffer.add_char buf '#';
    Buffer.add_string buf (string_of_int c.p_last);
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int c.p_streak)
  | R r -> Cache_sim_list.add_fingerprint r buf

(* ----- introspection (tests, telemetry) ------------------------------------ *)

let rolling_digest = function P c -> Some c.digest | R _ -> None

let digest_consistent = function
  | R _ -> true
  | P c ->
    let ok = ref true in
    let d = ref 0 in
    Array.iter
      (fun lvl ->
        for s = 0 to Array.length lvl.set_hash - 1 do
          let off = s * lvl.ways in
          let untouched = ref true in
          for w = off to off + lvl.ways - 1 do
            if lvl.lines.(w) <> -1 then untouched := false
          done;
          let expect = if !untouched then 0 else set_hash_of lvl s in
          if lvl.set_hash.(s) <> expect then ok := false;
          d := !d lxor lvl.set_hash.(s)
        done)
      c.plevels;
    !ok && !d = c.digest
