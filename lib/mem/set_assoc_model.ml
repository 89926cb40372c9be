open Mp_uarch

type level = Cache_geometry.level

type stream = { target : level; addresses : int array }

type t = {
  uarch : Uarch_def.t;
  weights : (level * float) list;  (* normalised, all four levels *)
  pools : (level * int array) list;  (* line addresses per level *)
}

let rank = function
  | Cache_geometry.L1 -> 0
  | Cache_geometry.L2 -> 1
  | Cache_geometry.L3 -> 2
  | Cache_geometry.MEM -> 3

(* Build the line pool that guarantees sourcing from [level], rooted at
   L1 set index [s].  See the .mli for the invariants. *)
let build_pool uarch level s =
  let l1 = Uarch_def.cache uarch Cache_geometry.L1 in
  let l2 = Uarch_def.cache uarch Cache_geometry.L2 in
  let l3 = Uarch_def.cache uarch Cache_geometry.L3 in
  (* 3x associativity (+1 to avoid resonance with loop instruction
     counts): robust to the re-ordering an out-of-order core applies
     within its instruction window *)
  let thrash_count g = (3 * g.Cache_geometry.associativity) + 1 in
  let resident_count g = g.Cache_geometry.associativity / 2 in
  (* distinct tag base per level class keeps pools of different loops
     from aliasing even when they share set indices at deeper levels *)
  let base_tag = 1 + (rank level * 97) in
  match level with
  | Cache_geometry.L1 ->
    Array.init (max 1 (resident_count l1)) (fun i ->
        Cache_geometry.address_with_set l1 ~set:s ~tag:(base_tag + i))
  | Cache_geometry.L2 ->
    (* > L1-assoc lines sharing L1 set [s], spread over distinct L2 sets
       with at most [resident] lines per L2 set. *)
    let n = thrash_count l1 in
    let spread = Cache_geometry.sets l2 / Cache_geometry.sets l1 in
    Array.init n (fun j ->
        let set = s + (j mod spread * Cache_geometry.sets l1) in
        Cache_geometry.address_with_set l2 ~set ~tag:(base_tag + (j / spread)))
  | Cache_geometry.L3 ->
    (* > L2-assoc lines sharing the L2 set whose index equals [s]
       (upper L2-set bits zero), spread over distinct L3 sets. *)
    let n = thrash_count l2 in
    let spread = Cache_geometry.sets l3 / Cache_geometry.sets l2 in
    Array.init n (fun j ->
        let set = s + (j mod spread * Cache_geometry.sets l2) in
        Cache_geometry.address_with_set l3 ~set ~tag:(base_tag + (j / spread)))
  | Cache_geometry.MEM ->
    (* > L3-assoc lines sharing one L3 set: miss everywhere. *)
    let n = thrash_count l3 in
    Array.init n (fun j ->
        Cache_geometry.address_with_set l3 ~set:s ~tag:(base_tag + j))

let create ~uarch ?(partition = (0, 1)) ~distribution () =
  let thread, n_threads = partition in
  if n_threads < 1 || thread < 0 || thread >= n_threads then
    invalid_arg "Set_assoc_model.create: bad partition";
  List.iter
    (fun (_, w) ->
      if w < 0.0 then invalid_arg "Set_assoc_model.create: negative weight")
    distribution;
  let weight l =
    match List.assoc_opt l distribution with None -> 0.0 | Some w -> w
  in
  let total = List.fold_left (fun acc l -> acc +. weight l) 0.0
      Cache_geometry.all_levels
  in
  if total <= 0.0 then invalid_arg "Set_assoc_model.create: zero distribution";
  let weights =
    List.map (fun l -> (l, weight l /. total)) Cache_geometry.all_levels
  in
  let l1_sets = Cache_geometry.sets (Uarch_def.cache uarch Cache_geometry.L1) in
  let classes = List.length Cache_geometry.all_levels in
  let per_thread = l1_sets / n_threads in
  if per_thread < classes then
    invalid_arg "Set_assoc_model.create: L1 set space too small for partition";
  let per_class = per_thread / classes in
  let pools =
    List.map
      (fun l ->
        let s = (thread * per_thread) + (rank l * per_class) in
        (l, build_pool uarch l s))
      Cache_geometry.all_levels
  in
  { uarch; weights; pools }

let distribution t = t.weights

let sample_level t rng =
  let levels = Array.of_list (List.map fst t.weights) in
  let w = Array.of_list (List.map snd t.weights) in
  levels.(Mp_util.Rng.weighted_index rng w)

let pool_lines t level = List.assoc level t.pools

let stream t rng level =
  let lines = Array.copy (pool_lines t level) in
  Mp_util.Rng.shuffle_in_place rng lines;
  (* random phase: rotate the order so concurrent streams interleave *)
  let phase = Mp_util.Rng.int rng (Array.length lines) in
  let n = Array.length lines in
  let addresses = Array.init n (fun i -> lines.((i + phase) mod n)) in
  { target = level; addresses }

(* Instruction m of the k on a level walks rotation position m + i*k at
   iteration i, so the interleaved sequence is 0,1,2,... mod p. Its
   stream is order[(m + i*k) mod p], which depends on m only through
   m mod p: instructions m and m + p walk the same addresses, and a
   level needs at most p distinct streams however many instructions
   target it. Each is built once and shared. *)
let coordinated_streams t rng ~targets =
  (* one shuffled rotation order per level, drawn in pool order *)
  let orders = Array.make 4 [||] in
  List.iter
    (fun (l, pool) ->
      let order = Array.copy pool in
      Mp_util.Rng.shuffle_in_place rng order;
      orders.(rank l) <- order)
    t.pools;
  let counts = Array.make 4 0 in
  Array.iter (fun l -> counts.(rank l) <- counts.(rank l) + 1) targets;
  let seen = Array.make 4 0 in
  let built = Array.make 4 [||] in
  Array.map
    (fun l ->
      let r = rank l in
      let m = seen.(r) in
      seen.(r) <- m + 1;
      let order = orders.(r) and k = counts.(r) in
      let p = Array.length order in
      if Array.length built.(r) = 0 then built.(r) <- Array.make p None;
      match built.(r).(m mod p) with
      | Some s -> s
      | None ->
        let s =
          { target = l;
            addresses = Array.init p (fun i -> order.((m + (i * k)) mod p)) }
        in
        built.(r).(m mod p) <- Some s;
        s)
    targets

let streams_for_loop t rng ~n =
  if n <= 0 then [||]
  else begin
    (* largest-remainder apportionment of the n instructions *)
    let quota = List.map (fun (l, w) -> (l, w *. float_of_int n)) t.weights in
    let floors = List.map (fun (l, q) -> (l, int_of_float (Float.floor q), q)) quota in
    let assigned = List.fold_left (fun acc (_, f, _) -> acc + f) 0 floors in
    let remainder_order =
      List.sort
        (fun (_, f1, q1) (_, f2, q2) ->
          compare (q2 -. float_of_int f2) (q1 -. float_of_int f1))
        floors
    in
    let leftover = n - assigned in
    let counts =
      List.mapi
        (fun i (l, f, _) -> (l, if i < leftover then f + 1 else f))
        remainder_order
    in
    let slots =
      List.concat_map (fun (l, c) -> List.init c (fun _ -> l)) counts
    in
    let slots = Array.of_list slots in
    Mp_util.Rng.shuffle_in_place rng slots;
    Array.map (fun l -> stream t rng l) slots
  end

(* STREAM-like dense kernels: a deterministic strided walk, in address
   order, sized so the touched line set overflows every level above the
   target and (stride permitting) cycles within it. Deliberately the
   opposite of [stream]: nothing is randomised, so the sequential
   prefetcher sees stride-1 walks and bandwidth-style sweeps have a
   fixed footprint per (target, stride) cell. *)
let sequential_stream ~uarch ~target ~stride_lines =
  if stride_lines < 1 then
    invalid_arg "Set_assoc_model.sequential_stream: stride_lines < 1";
  let cache l = Uarch_def.cache uarch l in
  let cap_lines g = g.Cache_geometry.size_bytes / g.Cache_geometry.line_bytes in
  let line_bytes = (cache Cache_geometry.L1).Cache_geometry.line_bytes in
  (* distinct lines walked: half the target's capacity for L1 (resident
     by construction), twice the capacity of the level above otherwise
     (thrashes everything above the target) *)
  let n =
    match target with
    | Cache_geometry.L1 -> max 1 (cap_lines (cache Cache_geometry.L1) / 2)
    | Cache_geometry.L2 -> 2 * cap_lines (cache Cache_geometry.L1)
    | Cache_geometry.L3 -> 2 * cap_lines (cache Cache_geometry.L2)
    | Cache_geometry.MEM -> 2 * cap_lines (cache Cache_geometry.L3)
  in
  (* widely separated base per level class: walks of different targets
     never alias *)
  let base = (1 + rank target) lsl 34 in
  {
    target;
    addresses = Array.init n (fun i -> base + (i * stride_lines * line_bytes));
  }

let footprint_bytes t =
  let line_bytes =
    (Uarch_def.cache t.uarch Cache_geometry.L1).Cache_geometry.line_bytes
  in
  List.fold_left (fun acc (_, pool) -> acc + (Array.length pool * line_bytes))
    0 t.pools
