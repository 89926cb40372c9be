open Mp_isa

type t = { name : string; apply : Builder.t -> unit }

let skeleton ~size =
  let name = Printf.sprintf "skeleton(%d)" size in
  { name; apply = (fun b -> Builder.set_skeleton b size) }

let check_candidates name = function
  | [] -> failwith (Printf.sprintf "pass %S: no candidate instructions" name)
  | _ -> ()

let fill_weighted weighted =
  let name = "fill_weighted" in
  {
    name;
    apply =
      (fun b ->
        Builder.require_skeleton b name;
        check_candidates name weighted;
        let ops = Array.of_list (List.map (fun (c, _) -> Some c) weighted) in
        let w = Array.of_list (List.map snd weighted) in
        for i = 0 to Builder.size b - 1 do
          b.ops.(i) <- ops.(Mp_util.Rng.weighted_index b.rng w)
        done);
  }

let fill_uniform candidates =
  let name = "fill_uniform" in
  {
    name;
    apply =
      (fun b ->
        Builder.require_skeleton b name;
        check_candidates name (List.map (fun c -> (c, 1.0)) candidates);
        let ops = Array.of_list (List.map Option.some candidates) in
        for i = 0 to Builder.size b - 1 do
          b.ops.(i) <- Mp_util.Rng.choose b.rng ops
        done);
  }

let fill_sequence pattern =
  let name = "fill_sequence" in
  {
    name;
    apply =
      (fun b ->
        Builder.require_skeleton b name;
        check_candidates name (List.map (fun c -> (c, 1.0)) pattern);
        let ops = Array.of_list (List.map Option.some pattern) in
        for i = 0 to Builder.size b - 1 do
          b.ops.(i) <- ops.(i mod Array.length ops)
        done);
  }

let fill_interleaved mix =
  let name = "fill_interleaved" in
  {
    name;
    apply =
      (fun b ->
        Builder.require_skeleton b name;
        check_candidates name (List.map (fun (c, _) -> (c, 1.0)) mix);
        let round =
          List.concat_map
            (fun (ins, k) ->
              let ins = Some ins in
              List.init (max 0 k) (fun _ -> ins))
            mix
        in
        if round = [] then failwith (Printf.sprintf "pass %S: empty round" name);
        let round = Array.of_list round in
        for i = 0 to Builder.size b - 1 do
          b.ops.(i) <- round.(i mod Array.length round)
        done);
  }

let memory_model distribution =
  let name = "memory_model" in
  {
    name;
    apply =
      (fun b ->
        Builder.require_filled b name;
        let modelled = function
          | Some (op : Instruction.t) ->
            Instruction.is_memory op && not op.prefetch
          | None -> false
        in
        let n =
          Array.fold_left (fun n op -> if modelled op then n + 1 else n) 0 b.ops
        in
        if n = 0 then
          failwith (Printf.sprintf "pass %S: no memory instructions to model" name);
        (* normalise and apportion by largest remainder *)
        let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 distribution in
        if total <= 0.0 then failwith (Printf.sprintf "pass %S: zero weights" name);
        let dist = List.map (fun (l, w) -> (l, w /. total)) distribution in
        let quotas = List.map (fun (l, w) -> (l, w *. float_of_int n)) dist in
        let floors =
          List.map (fun (l, q) -> (l, int_of_float (Float.floor q), q)) quotas
        in
        let assigned = List.fold_left (fun a (_, f, _) -> a + f) 0 floors in
        let by_rem =
          List.sort
            (fun (_, f1, q1) (_, f2, q2) ->
              compare (q2 -. float_of_int f2) (q1 -. float_of_int f1))
            floors
        in
        let counts =
          List.mapi
            (fun i (l, f, _) -> (l, if i < n - assigned then f + 1 else f))
            by_rem
        in
        let levels =
          List.concat_map
            (fun (l, c) ->
              let l = Some l in
              List.init c (fun _ -> l))
            counts
          |> Array.of_list
        in
        Mp_util.Rng.shuffle_in_place b.rng levels;
        let next = ref 0 in
        Array.iteri
          (fun i op ->
            if modelled op then begin
              b.mem_targets.(i) <- levels.(!next);
              incr next
            end)
          b.ops;
        b.mem_distribution <- Some dist);
  }

let branch_model ~bc ~frequency ~taken_ratio ~pattern_length =
  let name = "branch_model" in
  {
    name;
    apply =
      (fun b ->
        Builder.require_filled b name;
        if frequency < 0.0 || frequency > 1.0 then
          failwith (Printf.sprintf "pass %S: frequency out of range" name);
        let n = Builder.size b in
        let count = int_of_float (Float.round (frequency *. float_of_int n)) in
        let idx = Array.init n (fun i -> i) in
        Mp_util.Rng.shuffle_in_place b.rng idx;
        let bc = Some bc in
        for k = 0 to count - 1 do
          let i = idx.(k) in
          let taken = int_of_float (Float.round (taken_ratio *. float_of_int pattern_length)) in
          let pat = Array.init pattern_length (fun i -> i < taken) in
          Mp_util.Rng.shuffle_in_place b.rng pat;
          b.ops.(i) <- bc;
          b.mem_targets.(i) <- None;
          b.patterns.(i) <- Some pat
        done);
  }

let init_registers policy =
  let name =
    match policy with
    | Builder.Random_values -> "init_registers(random)"
    | Builder.Constant v -> Printf.sprintf "init_registers(0x%Lx)" v
  in
  { name; apply = (fun b -> b.reg_policy <- policy) }

let init_immediates policy =
  let name =
    match policy with
    | Builder.Random_values -> "init_immediates(random)"
    | Builder.Constant v -> Printf.sprintf "init_immediates(0x%Lx)" v
  in
  { name; apply = (fun b -> b.imm_policy <- policy) }

let dependency mode =
  let name =
    match mode with
    | Builder.No_deps -> "dependency(none)"
    | Builder.Fixed d -> Printf.sprintf "dependency(%d)" d
    | Builder.Random_range (lo, hi) -> Printf.sprintf "dependency(%d..%d)" lo hi
  in
  { name; apply = (fun b -> b.dep_mode <- mode) }

let rename n =
  { name = Printf.sprintf "rename(%s)" n; apply = (fun b -> b.name <- n) }

let custom ~name apply = { name; apply }

(* ----- seed-independence classification --------------------------------- *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Classify by recorded pass name — the [Ir.provenance] vocabulary.
   A pass is seed-independent when it draws nothing from any rng at
   build or deployment time: its whole effect is a pure function of its
   parameters, fully captured by the emitted IR. [memory_model] is
   seed-consuming even though its per-slot level assignment is baked
   into the IR, because the distribution it records triggers
   machine-rng address-stream synthesis at every deployment. Unknown
   (user [custom]) passes are conservatively seed-consuming. *)
let seed_independent name =
  name = "fill_sequence" || name = "fill_interleaved"
  || has_prefix "skeleton(" name
  || has_prefix "rename(" name
  || has_prefix "init_registers(0x" name
  || has_prefix "init_immediates(0x" name
  || (has_prefix "dependency(" name && not (has_sub ".." name))
