(* Tests for the analytical set-associative cache model: the static
   hit/miss guarantees of paper Section 2.1.3. *)

open Mp_uarch

let uarch () = Power7.define ()

let mk ?partition distribution =
  Mp_mem.Set_assoc_model.create ~uarch:(uarch ()) ?partition
    ~distribution ()

let all_l1 = [ (Cache_geometry.L1, 1.0) ]

let geom level = Uarch_def.cache (uarch ()) level

(* ----- construction -------------------------------------------------------- *)

let test_distribution_normalised () =
  let plan = mk [ (Cache_geometry.L1, 2.0); (Cache_geometry.L2, 2.0) ] in
  let d = Mp_mem.Set_assoc_model.distribution plan in
  Alcotest.(check (float 1e-9)) "L1" 0.5 (List.assoc Cache_geometry.L1 d);
  Alcotest.(check (float 1e-9)) "L2" 0.5 (List.assoc Cache_geometry.L2 d);
  Alcotest.(check (float 1e-9)) "MEM" 0.0 (List.assoc Cache_geometry.MEM d)

let test_create_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative weight" true
    (bad (fun () -> mk [ (Cache_geometry.L1, -1.0) ]));
  Alcotest.(check bool) "zero distribution" true
    (bad (fun () -> mk [ (Cache_geometry.L1, 0.0) ]));
  Alcotest.(check bool) "bad partition" true
    (bad (fun () -> mk ~partition:(2, 2) all_l1));
  Alcotest.(check bool) "partition too fine" true
    (bad (fun () -> mk ~partition:(0, 16) all_l1))

(* ----- pool invariants ------------------------------------------------------ *)

let test_l1_pool_resident () =
  let plan = mk all_l1 in
  let pool = Mp_mem.Set_assoc_model.pool_lines plan Cache_geometry.L1 in
  let l1 = geom Cache_geometry.L1 in
  Alcotest.(check bool) "within associativity" true
    (Array.length pool <= l1.Cache_geometry.associativity);
  let set = Cache_geometry.set_index l1 pool.(0) in
  Array.iter
    (fun a ->
      Alcotest.(check int) "same L1 set" set (Cache_geometry.set_index l1 a))
    pool;
  Alcotest.(check int) "distinct lines" (Array.length pool)
    (List.length (List.sort_uniq compare (Array.to_list pool)))

let test_l2_pool_thrashes_l1 () =
  let plan = mk [ (Cache_geometry.L2, 1.0) ] in
  let pool = Mp_mem.Set_assoc_model.pool_lines plan Cache_geometry.L2 in
  let l1 = geom Cache_geometry.L1 and l2 = geom Cache_geometry.L2 in
  Alcotest.(check bool) "more lines than L1 ways" true
    (Array.length pool > l1.Cache_geometry.associativity);
  let l1set = Cache_geometry.set_index l1 pool.(0) in
  Array.iter
    (fun a -> Alcotest.(check int) "one L1 set" l1set (Cache_geometry.set_index l1 a))
    pool;
  (* at most associativity lines per L2 set: they stay resident *)
  let per_set = Hashtbl.create 16 in
  Array.iter
    (fun a ->
      let s = Cache_geometry.set_index l2 a in
      Hashtbl.replace per_set s (1 + Option.value ~default:0 (Hashtbl.find_opt per_set s)))
    pool;
  Hashtbl.iter
    (fun _ n ->
      Alcotest.(check bool) "L2 resident" true (n <= l2.Cache_geometry.associativity))
    per_set

let test_l3_pool_thrashes_l2 () =
  let plan = mk [ (Cache_geometry.L3, 1.0) ] in
  let pool = Mp_mem.Set_assoc_model.pool_lines plan Cache_geometry.L3 in
  let l2 = geom Cache_geometry.L2 and l3 = geom Cache_geometry.L3 in
  Alcotest.(check bool) "more lines than L2 ways" true
    (Array.length pool > l2.Cache_geometry.associativity);
  let l2set = Cache_geometry.set_index l2 pool.(0) in
  Array.iter
    (fun a -> Alcotest.(check int) "one L2 set" l2set (Cache_geometry.set_index l2 a))
    pool;
  let per_set = Hashtbl.create 32 in
  Array.iter
    (fun a ->
      let s = Cache_geometry.set_index l3 a in
      Hashtbl.replace per_set s (1 + Option.value ~default:0 (Hashtbl.find_opt per_set s)))
    pool;
  Hashtbl.iter
    (fun _ n ->
      Alcotest.(check bool) "L3 resident" true (n <= l3.Cache_geometry.associativity))
    per_set

let test_mem_pool_thrashes_l3 () =
  let plan = mk [ (Cache_geometry.MEM, 1.0) ] in
  let pool = Mp_mem.Set_assoc_model.pool_lines plan Cache_geometry.MEM in
  let l3 = geom Cache_geometry.L3 in
  Alcotest.(check bool) "more lines than L3 ways" true
    (Array.length pool > l3.Cache_geometry.associativity);
  let set = Cache_geometry.set_index l3 pool.(0) in
  Array.iter
    (fun a -> Alcotest.(check int) "one L3 set" set (Cache_geometry.set_index l3 a))
    pool

let test_pools_disjoint_l1_sets () =
  let plan =
    mk [ (Cache_geometry.L1, 0.25); (Cache_geometry.L2, 0.25);
         (Cache_geometry.L3, 0.25); (Cache_geometry.MEM, 0.25) ]
  in
  let l1 = geom Cache_geometry.L1 in
  let sets_of level =
    Array.to_list (Mp_mem.Set_assoc_model.pool_lines plan level)
    |> List.map (Cache_geometry.set_index l1)
    |> List.sort_uniq compare
  in
  let all = List.concat_map sets_of Cache_geometry.all_levels in
  Alcotest.(check int) "no L1-set shared between levels"
    (List.length all)
    (List.length (List.sort_uniq compare all))

let test_partition_disjoint_between_threads () =
  let l1 = geom Cache_geometry.L1 in
  let sets_of_thread t =
    let plan = mk ~partition:(t, 4)
        [ (Cache_geometry.L1, 0.5); (Cache_geometry.L2, 0.5) ] in
    List.concat_map
      (fun lvl ->
        Array.to_list (Mp_mem.Set_assoc_model.pool_lines plan lvl)
        |> List.map (Cache_geometry.set_index l1))
      [ Cache_geometry.L1; Cache_geometry.L2 ]
    |> List.sort_uniq compare
  in
  let s0 = sets_of_thread 0 and s1 = sets_of_thread 1 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "thread sets disjoint" false (List.mem s s1))
    s0

(* ----- streams --------------------------------------------------------------- *)

let test_sample_level_distribution () =
  let plan = mk [ (Cache_geometry.L1, 0.7); (Cache_geometry.L2, 0.3) ] in
  let rng = Mp_util.Rng.create 5 in
  let n = 20000 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to n do
    let l = Mp_mem.Set_assoc_model.sample_level plan rng in
    Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l))
  done;
  let frac l = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts l)) /. float_of_int n in
  Alcotest.(check (float 0.02)) "L1 frac" 0.7 (frac Cache_geometry.L1);
  Alcotest.(check (float 0.02)) "L2 frac" 0.3 (frac Cache_geometry.L2)

let test_stream_addresses_in_pool () =
  let plan = mk [ (Cache_geometry.L2, 1.0) ] in
  let rng = Mp_util.Rng.create 6 in
  let s = Mp_mem.Set_assoc_model.stream plan rng Cache_geometry.L2 in
  let pool = Array.to_list (Mp_mem.Set_assoc_model.pool_lines plan Cache_geometry.L2) in
  Array.iter
    (fun a -> Alcotest.(check bool) "address from pool" true (List.mem a pool))
    s.Mp_mem.Set_assoc_model.addresses

let test_coordinated_streams_global_cycle () =
  (* interleaving the per-instruction streams in body order must walk
     the pool cyclically: between two touches of the same line, every
     other pool line is touched exactly once *)
  let plan = mk [ (Cache_geometry.L2, 1.0) ] in
  let rng = Mp_util.Rng.create 7 in
  let k = 3 in
  let targets = Array.make k Cache_geometry.L2 in
  let streams = Mp_mem.Set_assoc_model.coordinated_streams plan rng ~targets in
  let pool = Mp_mem.Set_assoc_model.pool_lines plan Cache_geometry.L2 in
  let p = Array.length pool in
  (* rebuild the runtime interleaving for two loop iterations *)
  let seq = ref [] in
  for iter = 0 to 1 do
    Array.iter
      (fun (s : Mp_mem.Set_assoc_model.stream) ->
        let a = s.Mp_mem.Set_assoc_model.addresses in
        seq := a.(iter mod Array.length a) :: !seq)
      streams
  done;
  let seq = Array.of_list (List.rev !seq) in
  (* distance between consecutive touches of any line must be >= p
     within the window we generated *)
  let last = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      (match Hashtbl.find_opt last a with
       | Some j ->
         Alcotest.(check bool) "re-access distance = pool size" true (i - j >= p)
       | None -> ());
      Hashtbl.replace last a i)
    seq

let test_coordinated_apportionment () =
  let plan = mk [ (Cache_geometry.L1, 0.5); (Cache_geometry.L3, 0.5) ] in
  let rng = Mp_util.Rng.create 8 in
  let targets =
    Array.init 10 (fun i -> if i < 5 then Cache_geometry.L1 else Cache_geometry.L3)
  in
  let streams = Mp_mem.Set_assoc_model.coordinated_streams plan rng ~targets in
  Array.iteri
    (fun i (s : Mp_mem.Set_assoc_model.stream) ->
      Alcotest.(check bool) "target preserved" true
        (s.Mp_mem.Set_assoc_model.target = targets.(i)))
    streams

let test_streams_for_loop_counts () =
  let plan = mk [ (Cache_geometry.L1, 0.75); (Cache_geometry.L2, 0.25) ] in
  let rng = Mp_util.Rng.create 9 in
  let streams = Mp_mem.Set_assoc_model.streams_for_loop plan rng ~n:16 in
  let count l =
    Array.fold_left
      (fun acc (s : Mp_mem.Set_assoc_model.stream) ->
        if s.Mp_mem.Set_assoc_model.target = l then acc + 1 else acc)
      0 streams
  in
  Alcotest.(check int) "12 L1" 12 (count Cache_geometry.L1);
  Alcotest.(check int) "4 L2" 4 (count Cache_geometry.L2)

let test_footprint () =
  let plan = mk all_l1 in
  let fp = Mp_mem.Set_assoc_model.footprint_bytes plan in
  Alcotest.(check bool) "positive and small" true (fp > 0 && fp < 64 * 1024)

(* ----- end-to-end with the cache simulator ---------------------------------- *)

let last_targets = ref [||]

let simulate_distribution ?(return_targets = false) distribution =
  ignore return_targets;
  let u = uarch () in
  let plan = Mp_mem.Set_assoc_model.create ~uarch:u ~distribution () in
  let rng = Mp_util.Rng.create 11 in
  let n = 24 in
  let targets =
    Array.init n (fun _ -> Mp_mem.Set_assoc_model.sample_level plan rng)
  in
  last_targets := Array.copy targets;
  let streams = Mp_mem.Set_assoc_model.coordinated_streams plan rng ~targets in
  let cache = Mp_sim.Cache_sim.create u in
  (* warm up two full rotations, then measure *)
  let rounds = 40 in
  for _ = 1 to 8 do
    Array.iter
      (fun (s : Mp_mem.Set_assoc_model.stream) ->
        let a = s.Mp_mem.Set_assoc_model.addresses in
        ignore (Mp_sim.Cache_sim.access cache ~addr:a.(0) ~store:false))
      streams
  done;
  Mp_sim.Cache_sim.reset_stats cache;
  for r = 0 to rounds - 1 do
    Array.iter
      (fun (s : Mp_mem.Set_assoc_model.stream) ->
        let a = s.Mp_mem.Set_assoc_model.addresses in
        ignore (Mp_sim.Cache_sim.access cache ~addr:a.(r mod Array.length a) ~store:false))
      streams
  done;
  let total = float_of_int (rounds * n) in
  List.map
    (fun l -> (l, float_of_int (Mp_sim.Cache_sim.hits cache l) /. total))
    Cache_geometry.all_levels

let test_guarantee_under_simulation () =
  (* the headline property: the *sampled* per-instruction targets and
     the observed hit distribution agree on a real LRU hierarchy — the
     sampling itself quantises the ideal weights, so the comparison is
     against the realised targets *)
  let measured =
    simulate_distribution
      [ (Cache_geometry.L1, 0.4); (Cache_geometry.L2, 0.3);
        (Cache_geometry.L3, 0.2); (Cache_geometry.MEM, 0.1) ]
  in
  let targets = !last_targets in
  let n = float_of_int (Array.length targets) in
  let sampled l =
    float_of_int
      (Array.fold_left (fun acc x -> if x = l then acc + 1 else acc) 0 targets)
    /. n
  in
  List.iter
    (fun l ->
      Alcotest.(check (float 0.05))
        (Cache_geometry.level_to_string l ^ " share")
        (sampled l)
        (List.assoc l measured))
    Cache_geometry.all_levels;
  let total =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 measured
  in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 total

let test_pure_levels_exact () =
  (* the hardware prefetcher can convert a stray access or two into L1
     hits despite the randomised order; the guarantee is near-exact *)
  List.iter
    (fun lvl ->
      let measured = simulate_distribution [ (lvl, 1.0) ] in
      Alcotest.(check bool)
        ("pure " ^ Cache_geometry.level_to_string lvl)
        true
        (List.assoc lvl measured >= 0.97))
    Cache_geometry.all_levels

(* ----- golden streams ------------------------------------------------------ *)

(* MD5 of every stream [coordinated_streams] returns — target and
   addresses — over target mixes (one level, many instructions per
   level pool, all four levels interleaved, a short body) x every
   thread of SMT 1/2/4 partitions x three seeds, captured before the
   streams of one level were shared between instructions: sharing must
   hand each instruction the same addresses. *)
let golden_streams = "b2ba5cba75291f9aa78ca1eff4973ba6"

let test_golden_streams () =
  let open Cache_geometry in
  let levels = [| L1; L2; L3; MEM |] in
  let mixes =
    [ Array.make 64 L1;
      Array.make 100 L2;
      Array.init 300 (fun i -> levels.((i * 7 + (i / 5)) mod 4));
      [| MEM; L3; L3; L1 |] ]
  in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun targets ->
      List.iter
        (fun smt ->
          for tid = 0 to smt - 1 do
            List.iter
              (fun seed ->
                let plan =
                  mk ~partition:(tid, smt)
                    [ (L1, 0.4); (L2, 0.3); (L3, 0.2); (MEM, 0.1) ]
                in
                let rng = Mp_util.Rng.create seed in
                Printf.bprintf b "== %d %d/%d %d\n" (Array.length targets) tid
                  smt seed;
                Array.iter
                  (fun (s : Mp_mem.Set_assoc_model.stream) ->
                    Printf.bprintf b "%s:" (level_to_string s.target);
                    Array.iter (Printf.bprintf b "%x,") s.addresses;
                    Buffer.add_char b '\n')
                  (Mp_mem.Set_assoc_model.coordinated_streams plan rng
                     ~targets))
              [ 1; 2012; 77 ]
          done)
        [ 1; 2; 4 ])
    mixes;
  Alcotest.(check string) "coordinated streams digest" golden_streams
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  Alcotest.run "mp_mem"
    [
      ("construction",
       [ Alcotest.test_case "normalised" `Quick test_distribution_normalised;
         Alcotest.test_case "validation" `Quick test_create_validation ]);
      ("pools",
       [ Alcotest.test_case "L1 resident" `Quick test_l1_pool_resident;
         Alcotest.test_case "L2 thrashes L1" `Quick test_l2_pool_thrashes_l1;
         Alcotest.test_case "L3 thrashes L2" `Quick test_l3_pool_thrashes_l2;
         Alcotest.test_case "MEM thrashes L3" `Quick test_mem_pool_thrashes_l3;
         Alcotest.test_case "levels disjoint" `Quick test_pools_disjoint_l1_sets;
         Alcotest.test_case "threads disjoint" `Quick test_partition_disjoint_between_threads ]);
      ("streams",
       [ Alcotest.test_case "sample distribution" `Quick test_sample_level_distribution;
         Alcotest.test_case "addresses from pool" `Quick test_stream_addresses_in_pool;
         Alcotest.test_case "global cycle" `Quick test_coordinated_streams_global_cycle;
         Alcotest.test_case "apportionment" `Quick test_coordinated_apportionment;
         Alcotest.test_case "loop counts" `Quick test_streams_for_loop_counts;
         Alcotest.test_case "footprint" `Quick test_footprint;
         Alcotest.test_case "golden coordinated streams" `Quick
           test_golden_streams ]);
      ("simulation",
       [ Alcotest.test_case "mixed guarantee" `Quick test_guarantee_under_simulation;
         Alcotest.test_case "pure levels" `Quick test_pure_levels_exact ]);
    ]
