open Mp_sim
open Mp_uarch

type style = Joint | Sequential

type t = {
  weights : float array;
  intercept1 : float;
  smt_effect : float;
  cmp_effect : float;
  uncore : float;
  style : style;
}

let dyn_chip weights (m : Measurement.t) =
  Features.dot weights (Features.chip_sum m)

(* Step 1, Joint: non-negative LS over [x | 1] on the SMT1 data. *)
let fit_joint samples =
  let rows =
    List.map
      (fun (m : Measurement.t) ->
        let x = Features.chip_sum m in
        Array.append x [| 1.0 |])
      samples
  in
  let y = Array.of_list (List.map (fun (m : Measurement.t) -> m.Measurement.power) samples) in
  let beta = Mp_util.Matrix.nnls (Mp_util.Matrix.of_arrays (Array.of_list rows)) y in
  (Array.sub beta 0 Features.count, beta.(Features.count))

(* Step 1, Sequential: regress one component at a time on the samples
   it dominates, subtracting what previous components explain. *)
let fit_sequential samples =
  let n = Features.count in
  let xs =
    List.map (fun (m : Measurement.t) -> Features.chip_sum m) samples
  in
  let ys = List.map (fun (m : Measurement.t) -> m.Measurement.power) samples in
  let weights = Array.make n 0.0 in
  (* base intercept estimate: the least-active sample *)
  let base =
    List.fold_left2
      (fun acc x y ->
        let act = Array.fold_left ( +. ) 0.0 x in
        match acc with
        | Some (a, _) when a <= act -> acc
        | _ -> Some (act, y))
      None xs ys
    |> function Some (_, y) -> y | None -> invalid_arg "Bottom_up: no data"
  in
  let order = [ 0; 1; 2; 3; 4; 5; 6 ] in
  List.iter
    (fun j ->
      (* dominated-by-j: feature j explains most of the not-yet-modelled
         activity (components after j in the order) *)
      let selected =
        List.filter_map
          (fun (x, y) ->
            let later =
              List.fold_left
                (fun acc k -> if k > j then acc +. x.(k) else acc)
                0.0 order
            in
            if x.(j) > 0.05 && later < 0.25 *. x.(j) then Some (x, y) else None)
          (List.combine xs ys)
      in
      match selected with
      | [] -> ()
      | sel ->
        (* 1D regression of the unexplained residual against feature j *)
        let pts =
          List.map
            (fun (x, y) ->
              let known = ref 0.0 in
              for k = 0 to j - 1 do
                known := !known +. (weights.(k) *. x.(k))
              done;
              (x.(j), y -. base -. !known))
            sel
        in
        let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
        let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
        let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
        let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
        let m = float_of_int (List.length pts) in
        let denom = (m *. sxx) -. (sx *. sx) in
        if Float.abs denom > 1e-9 then
          weights.(j) <- Float.max 0.0 (((m *. sxy) -. (sx *. sy)) /. denom))
    order;
  (* calibrate the intercept as the mean unexplained power *)
  let intercept =
    Mp_util.Stats.mean
      (Array.of_list
         (List.map2 (fun x y -> y -. Features.dot weights x) xs ys))
  in
  (weights, intercept)

let check_config name pred samples =
  List.iter
    (fun (m : Measurement.t) ->
      if not (pred m.Measurement.config) then
        invalid_arg (Printf.sprintf "Bottom_up.train: %s has wrong config" name))
    samples

let train ?(style = Joint) ~baseline ~smt1 ~smt_on ~multi () =
  if smt1 = [] || smt_on = [] || multi = [] then
    invalid_arg "Bottom_up.train: empty training step";
  check_config "smt1"
    (fun c -> c.Uarch_def.cores = 1 && c.Uarch_def.smt = 1)
    smt1;
  check_config "smt_on"
    (fun c -> c.Uarch_def.cores = 1 && c.Uarch_def.smt > 1)
    smt_on;
  let weights, intercept1 =
    match style with
    | Joint -> fit_joint smt1
    | Sequential -> fit_sequential smt1
  in
  (* Step 2: SMT effect = intercept shift with SMT enabled *)
  let smt_intercepts =
    List.map
      (fun (m : Measurement.t) -> m.Measurement.power -. dyn_chip weights m)
      smt_on
  in
  let smt_effect =
    Float.max 0.0 (Mp_util.Stats.mean (Array.of_list smt_intercepts) -. intercept1)
  in
  (* Step 3: residuals vs number of cores *)
  let pts =
    List.map
      (fun (m : Measurement.t) ->
        let n = float_of_int m.Measurement.config.Uarch_def.cores in
        let smt_term =
          if m.Measurement.config.Uarch_def.smt > 1 then smt_effect *. n else 0.0
        in
        let r =
          m.Measurement.power -. intercept1 -. dyn_chip weights m -. smt_term
        in
        (n, r))
      multi
  in
  let mcount = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let denom = (mcount *. sxx) -. (sx *. sx) in
  let cmp_effect, uncore =
    if Float.abs denom < 1e-9 then (0.0, sy /. mcount)
    else
      let a = ((mcount *. sxy) -. (sx *. sy)) /. denom in
      let b = (sy -. (a *. sx)) /. mcount in
      (a, b)
  in
  (* Attribution: the workload-independent part is the measured
     deepest-idle baseline; everything else of the constant term is
     uncore. The step-1 intercept absorbed the uncore and one core's
     static share, so the residual intercept [c] re-centres it. *)
  let uncore = intercept1 +. uncore -. baseline in
  { weights; intercept1 = baseline; smt_effect; cmp_effect; uncore; style }

type breakdown = {
  workload_independent : float;
  uncore_part : float;
  cmp_part : float;
  smt_part : float;
  dynamic : float;
}

let decompose t (m : Measurement.t) =
  let n = float_of_int m.Measurement.config.Uarch_def.cores in
  {
    workload_independent = t.intercept1;
    uncore_part = t.uncore;
    cmp_part = t.cmp_effect *. n;
    smt_part =
      (if m.Measurement.config.Uarch_def.smt > 1 then t.smt_effect *. n else 0.0);
    dynamic = dyn_chip t.weights m;
  }

let breakdown_total b =
  b.workload_independent +. b.uncore_part +. b.cmp_part +. b.smt_part
  +. b.dynamic

let predict t m = breakdown_total (decompose t m)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>bottom-up model (%s):@ weights: %s@ workload-independent %.2f, uncore %.2f, CMP %.3f/core, SMT %.3f/core@]"
    (match t.style with Joint -> "joint" | Sequential -> "sequential")
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun i w -> Printf.sprintf "%s=%.3f" Features.names.(i) w)
             t.weights)))
    t.intercept1 t.uncore t.cmp_effect t.smt_effect
