(* Unit and property tests for Mp_util: RNG, statistics, linear algebra
   and table rendering. *)

open Mp_util

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ----- rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xa = List.init 8 (fun _ -> Rng.bits64 a) in
  let xb = List.init 8 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "different streams" true (xa <> xb)

let test_rng_split () =
  let g = Rng.create 7 in
  let h = Rng.split g in
  let xs = List.init 16 (fun _ -> Rng.bits64 g) in
  let ys = List.init 16 (fun _ -> Rng.bits64 h) in
  Alcotest.(check bool) "split independent" true (xs <> ys)

let test_rng_copy () =
  let g = Rng.create 9 in
  ignore (Rng.bits64 g);
  let h = Rng.copy g in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 g) (Rng.bits64 h)

let test_gaussian_moments () =
  let g = Rng.create 11 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian g ~mu:5.0 ~sigma:2.0) in
  check_close 0.1 "mean" 5.0 (Stats.mean xs);
  check_close 0.1 "stddev" 2.0 (Stats.stddev xs)

let test_weighted_index () =
  let g = Rng.create 3 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30000 do
    let i = Rng.weighted_index g [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.02 "w0" 0.1 (float_of_int counts.(0) /. 30000.0);
  check_close 0.02 "w1" 0.2 (float_of_int counts.(1) /. 30000.0);
  check_close 0.02 "w2" 0.7 (float_of_int counts.(2) /. 30000.0)

let test_weighted_index_zero_total () =
  Alcotest.check_raises "zero weights" (Invalid_argument "Rng.weighted_index: non-positive total")
    (fun () -> ignore (Rng.weighted_index (Rng.create 1) [| 0.0; 0.0 |]))

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Rng.create seed in
      let v = Rng.int g bound in
      v >= 0 && v < bound)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, extra) ->
      let hi = lo + extra in
      let g = Rng.create seed in
      let v = Rng.int_in g lo hi in
      v >= lo && v <= hi)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let g = Rng.create seed in
      let shuffled = Rng.shuffle g l in
      List.sort compare shuffled = List.sort compare l)

let prop_float_bounds =
  QCheck.Test.make ~name:"Rng.float in [0,bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let g = Rng.create seed in
      let v = Rng.float g bound in
      v >= 0.0 && v < bound)

(* ----- stats ------------------------------------------------------------ *)

let test_mean_variance () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  check_float "sum" 10.0 (Stats.sum xs)

let test_percentiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.median xs);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 100.0)

let test_paae () =
  let actual = [| 100.0; 200.0 |] in
  check_float "paae zero" 0.0 (Stats.paae ~actual ~predicted:actual);
  check_float "paae 10%" 10.0
    (Stats.paae ~actual ~predicted:[| 110.0; 180.0 |]);
  check_float "max err" 10.0
    (Stats.max_abs_pct_error ~actual ~predicted:[| 110.0; 180.0 |])

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0 |] in
  check_close 1e-9 "self-correlation" 1.0 (Stats.pearson xs xs);
  check_close 1e-9 "anti" (-1.0) (Stats.pearson xs [| 3.0; 2.0; 1.0 |]);
  check_float "flat" 0.0 (Stats.pearson xs [| 1.0; 1.0; 1.0 |])

let test_converged () =
  Alcotest.(check bool) "tight" true (Stats.converged [| 1.0; 1.001; 0.999 |]);
  Alcotest.(check bool) "loose" false (Stats.converged [| 1.0; 2.0 |])

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      let m = Stats.mean xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* ----- matrix ----------------------------------------------------------- *)

let test_matrix_identity () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Matrix.identity 2 in
  let b = Matrix.mul a i in
  Alcotest.(check bool) "a*I = a" true
    (Matrix.get b 0 0 = 1.0 && Matrix.get b 1 1 = 4.0)

let test_matrix_solve () =
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matrix.solve a [| 5.0; 10.0 |] in
  check_close 1e-9 "x0" 1.0 x.(0);
  check_close 1e-9 "x1" 3.0 x.(1)

let test_matrix_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular")
    (fun () -> ignore (Matrix.solve a [| 1.0; 2.0 |]))

let test_ols_recovery () =
  (* y = 3 x0 - 2 x1 + 5 *)
  let g = Rng.create 77 in
  let rows = Array.init 50 (fun _ ->
      [| Rng.float g 10.0; Rng.float g 10.0; 1.0 |]) in
  let y = Array.map (fun r -> (3.0 *. r.(0)) -. (2.0 *. r.(1)) +. 5.0) rows in
  let beta = Matrix.ols (Matrix.of_arrays rows) y in
  check_close 1e-4 "b0" 3.0 beta.(0);
  check_close 1e-4 "b1" (-2.0) beta.(1);
  check_close 1e-3 "b2" 5.0 beta.(2)

let test_nnls_nonnegative () =
  let g = Rng.create 78 in
  let rows = Array.init 60 (fun _ -> [| Rng.float g 5.0; Rng.float g 5.0 |]) in
  (* true weight of x1 is negative: nnls must clamp it at zero *)
  let y = Array.map (fun r -> (2.0 *. r.(0)) -. (1.0 *. r.(1))) rows in
  let beta = Matrix.nnls (Matrix.of_arrays rows) y in
  Alcotest.(check bool) "all non-negative" true (Array.for_all (fun b -> b >= 0.0) beta);
  Alcotest.(check bool) "x0 weight positive" true (beta.(0) > 0.5)

let test_nnls_recovery () =
  let g = Rng.create 79 in
  let rows = Array.init 60 (fun _ -> [| Rng.float g 5.0; Rng.float g 5.0 |]) in
  let y = Array.map (fun r -> (2.0 *. r.(0)) +. (0.5 *. r.(1))) rows in
  let beta = Matrix.nnls (Matrix.of_arrays rows) y in
  check_close 1e-3 "b0" 2.0 beta.(0);
  check_close 1e-3 "b1" 0.5 beta.(1)

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involutive" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (m, n) ->
      let g = Rng.create (m + (7 * n)) in
      let a = Matrix.of_arrays
          (Array.init m (fun _ -> Array.init n (fun _ -> Rng.float g 9.0))) in
      let tt = Matrix.transpose (Matrix.transpose a) in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          if Matrix.get a i j <> Matrix.get tt i j then ok := false
        done
      done;
      !ok)

let prop_solve_random_spd =
  QCheck.Test.make ~name:"solve recovers x on random SPD systems" ~count:100
    (QCheck.int_range 1 8)
    (fun n ->
      let g = Rng.create (1000 + n) in
      let b = Matrix.of_arrays
          (Array.init n (fun _ -> Array.init n (fun _ -> Rng.float g 2.0))) in
      (* a = b^T b + I is symmetric positive definite *)
      let a = Matrix.add (Matrix.mul (Matrix.transpose b) b) (Matrix.identity n) in
      let x = Array.init n (fun i -> float_of_int (i + 1)) in
      let rhs = Matrix.mul_vec a x in
      let solved = Matrix.solve a rhs in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) x solved)

(* ----- text table ------------------------------------------------------- *)

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_text_table () =
  let t = Text_table.create [ "name"; "value" ] in
  Text_table.add_row t [ "alpha"; "1" ];
  Text_table.add_separator t;
  Text_table.add_row t [ "b" ];
  let s = Text_table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  Alcotest.(check bool) "mentions alpha" true (contains_sub s "alpha")

let test_text_table_too_wide () =
  let t = Text_table.create [ "a" ] in
  Alcotest.check_raises "too wide" (Invalid_argument "Text_table.add_row: too wide")
    (fun () -> Text_table.add_row t [ "x"; "y" ])

let test_cells () =
  Alcotest.(check string) "float" "1.500" (Text_table.cell_f 1.5);
  Alcotest.(check string) "pct" "12.3%" (Text_table.cell_pct 12.34)

(* ----- csv --------------------------------------------------------------- *)

let test_csv_basic () =
  let c = Csv.create [ "a"; "b" ] in
  Csv.add_row c [ "1"; "2" ];
  Csv.add_floats c [ 3.5; 4.25 ];
  Alcotest.(check string) "render" "a,b\n1,2\n3.5,4.25\n" (Csv.render c)

let test_csv_quoting () =
  let c = Csv.create [ "x" ] in
  Csv.add_row c [ "hello, \"world\"" ];
  Alcotest.(check string) "quoted" "x\n\"hello, \"\"world\"\"\"\n" (Csv.render c)

let test_csv_padding () =
  let c = Csv.create [ "a"; "b"; "c" ] in
  Csv.add_row c [ "1" ];
  Csv.add_row c [ "1"; "2"; "3"; "4" ];
  Alcotest.(check string) "padded/truncated" "a,b,c\n1,,\n1,2,3\n" (Csv.render c)

(* ----- transport frame codec --------------------------------------------- *)

(* The wire format every worker slot speaks, subprocess or TCP peer.
   Everything runs over a plain Unix pipe: the codec only
   sees fds, so a pipe exercises exactly the byte paths a socket
   would. Payload sizes stay under the kernel pipe buffer so a single
   thread can write-then-read without deadlocking. *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with _ -> ());
      (try Unix.close w with _ -> ()))
    (fun () -> f r w)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame round-trip (any payload, incl. empty)"
    ~count:200
    QCheck.(string_of_size Gen.(int_range 0 16384))
    (fun s ->
      with_pipe (fun r w ->
          let payload = Bytes.of_string s in
          Transport.write_frame w payload;
          match Transport.read_frame ~timeout_s:5.0 r with
          | Some got -> Bytes.equal got payload
          | None -> false))

let prop_frame_garbage_total =
  (* arbitrary bytes after a small claimed length: the reader either
     produces a frame or None — never an exception. The first two
     header bytes are forced to zero so a garbage header can't demand
     a gigabyte allocation inside the property loop. *)
  QCheck.Test.make ~name:"garbage on the wire never raises" ~count:200
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s ->
      with_pipe (fun r w ->
          let junk = Bytes.cat (Bytes.make 2 '\000') (Bytes.of_string s) in
          Transport.write_all w junk 0 (Bytes.length junk);
          Unix.close w;
          match Transport.read_frame ~timeout_s:1.0 r with
          | Some _ | None -> true
          | exception _ -> false))

let test_frame_empty_roundtrip () =
  with_pipe (fun r w ->
      Transport.write_frame w Bytes.empty;
      match Transport.read_frame ~timeout_s:5.0 r with
      | Some got -> Alcotest.(check int) "empty" 0 (Bytes.length got)
      | None -> Alcotest.fail "empty frame lost")

let test_frame_over_guard_rejected () =
  (* a header claiming max_frame_bytes + 1: the reader must reject it
     from the header alone — returning None without allocating the
     claimed payload (nothing but the header is ever written) *)
  with_pipe (fun r w ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Transport.max_frame_bytes + 1));
      Transport.write_all w hdr 0 4;
      Unix.close w;
      Alcotest.(check bool) "over-guard -> None" true
        (Transport.read_frame ~timeout_s:1.0 r = None))

let test_frame_negative_length_rejected () =
  with_pipe (fun r w ->
      Transport.write_all w (Bytes.make 4 '\xff') 0 4;
      Unix.close w;
      Alcotest.(check bool) "negative length -> None" true
        (Transport.read_frame ~timeout_s:1.0 r = None))

let test_frame_truncated_header () =
  with_pipe (fun r w ->
      Transport.write_all w (Bytes.make 2 'x') 0 2;
      Unix.close w;
      Alcotest.(check bool) "truncated header -> None" true
        (Transport.read_frame ~timeout_s:1.0 r = None))

let test_frame_truncated_payload () =
  with_pipe (fun r w ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 100l;
      Transport.write_all w hdr 0 4;
      Transport.write_all w (Bytes.make 50 'p') 0 50;
      Unix.close w;
      Alcotest.(check bool) "truncated payload -> None" true
        (Transport.read_frame ~timeout_s:1.0 r = None))

let test_frame_timeout () =
  with_pipe (fun r _w ->
      let t0 = Unix.gettimeofday () in
      let got = Transport.read_frame ~timeout_s:0.05 r in
      Alcotest.(check bool) "no frame -> None" true (got = None);
      Alcotest.(check bool) "returned promptly" true
        (Unix.gettimeofday () -. t0 < 2.0))

let test_frame_oversized_write_rejected () =
  (* the writer refuses to emit a frame the reader's guard would kill.
     Bytes.create leaves the buffer uninitialised, so the guard+1
     allocation is untouched virtual memory and the length check fires
     before a single byte reaches the fd *)
  with_pipe (fun _r w ->
      let huge = Bytes.create (Transport.max_frame_bytes + 1) in
      Alcotest.check_raises "over guard"
        (Invalid_argument "Transport.write_frame: frame too large")
        (fun () -> Transport.write_frame w huge))

(* ----- env -------------------------------------------------------------- *)

(* The knob grammar, one row per (reader, value): [Some] is the parsed
   value as text, [None] a rejection, whose message must name the
   variable, the trimmed value and the expected form. *)
let test_env_grammar () =
  let var = "MP_TEST_KNOB" in
  let opt f = function None -> "absent" | Some x -> f x in
  let flag n = string_of_bool (Env.flag n ~default:false) in
  let choice n =
    Env.choice n ~default:"default" [ ("packed", "P"); ("list", "L") ]
  in
  let int0 n = opt string_of_int (Env.int n ~min:0) in
  let int1 n = opt string_of_int (Env.int n ~min:1) in
  let pos n = opt string_of_float (Env.positive_float n) in
  let hosts n =
    String.concat ","
      (List.map (fun (h, p) -> Printf.sprintf "%s/%d" h p) (Env.hosts n))
  in
  let get n = opt Fun.id (Env.get n) in
  let spellings =
    List.concat_map
      (fun (w, b) ->
        List.map
          (fun w -> ("flag", flag, w, Some (string_of_bool b)))
          [ w; String.uppercase_ascii w; String.capitalize_ascii w ])
      Env.flag_words
  in
  let rows =
    spellings
    @ [ ("flag", flag, "", Some "false");
        ("flag", flag, " yes ", Some "true");
        ("flag", flag, "of", None);
        ("flag", flag, "enabled", None);
        ("flag", flag, "2", None);
        ("choice", choice, "LIST", Some "L");
        ("choice", choice, " ", Some "default");
        ("choice", choice, "fast", None);
        ("choice", choice, "reference", None);
        ("int", int0, "0", Some "0");
        ("int", int0, "-1", None);
        ("int", int1, " 4 ", Some "4");
        ("int", int1, "", Some "absent");
        ("int", int1, "0", None);
        ("int", int1, "four", None);
        ("int", int1, "2.5", None);
        ("float", pos, "0.5", Some "0.5");
        ("float", pos, "", Some "absent");
        ("float", pos, "0", None);
        ("float", pos, "-3", None);
        ("float", pos, "inf", None);
        ("float", pos, "nan", None);
        ("float", pos, "5s", None);
        ("hosts", hosts, "a:1, ::1:7000 ,b:65535", Some "a/1,::1/7000,b/65535");
        ("hosts", hosts, "", Some "");
        ("hosts", hosts, "127.0.0.1:notaport", None);
        ("hosts", hosts, "a:1,b", None);
        ("hosts", hosts, "a:0", None);
        ("hosts", hosts, "a:65536", None);
        ("hosts", hosts, ":80", None);
        ("get", get, "  x  ", Some "x");
        ("get", get, " ", Some "absent") ]
  in
  List.iter
    (fun (reader, f, value, expected) ->
      Unix.putenv var value;
      let got =
        match f var with
        | v -> Some v
        | exception Invalid_argument msg ->
          let prefix = Printf.sprintf "%s=%S: expected " var value in
          Alcotest.(check bool) ("message: " ^ msg) true
            (String.starts_with ~prefix msg);
          None
      in
      Alcotest.(check (option string))
        (Printf.sprintf "%s %S" reader value)
        expected got)
    rows;
  Unix.putenv var ""

(* ----- decimal writer and hash accumulator ------------------------------- *)

(* The fingerprint writer must produce exactly [string_of_int]'s bytes:
   period detection keys on the fingerprint string. *)
let test_decimal_writer () =
  let rng = Mp_util.Rng.create 2012 in
  let sample =
    List.init 2000 (fun i ->
        let v = Int64.to_int (Mp_util.Rng.bits64 rng) in
        (* every magnitude: shift a random word right by 0..62 bits *)
        let v = v asr (i mod 63) in
        if i land 1 = 0 then v else -v)
  in
  let b = Buffer.create 32 in
  List.iter
    (fun n ->
      Buffer.clear b;
      Mp_util.Decimal.add_int b n;
      Alcotest.(check string) (string_of_int n) (string_of_int n)
        (Buffer.contents b))
    ([ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int; max_int - 1;
       min_int + 1 ]
    @ sample)

(* The allocation-free pair reads back the boxed folds' values for the
   same bytes, with and without the prefix, over every fold and random
   inputs. *)
let test_fnv_pair () =
  let module F = Mp_util.Fnv in
  let rng = Mp_util.Rng.create 7 in
  let random_string () =
    String.init (Mp_util.Rng.int rng 12) (fun _ ->
        Char.chr (Mp_util.Rng.int rng 256))
  in
  for _ = 1 to 200 do
    let prefix = random_string () in
    let h1 = ref (F.string F.seed prefix) and h2 = ref F.seed in
    let p = F.pair ~prefix in
    let both f = h1 := f !h1; h2 := f !h2 in
    for _ = 1 to 50 do
      match Mp_util.Rng.int rng 4 with
      | 0 ->
        let v = Mp_util.Rng.int rng 1024 in
        both (fun h -> F.byte h v);
        F.pair_byte p v
      | 1 ->
        let v = Int64.to_int (Mp_util.Rng.bits64 rng) in
        let v = if Mp_util.Rng.bool rng then v else -v in
        both (fun h -> F.int h v);
        F.pair_int p v
      | 2 ->
        let v = Mp_util.Rng.bits64 rng in
        both (fun h -> F.int64 h v);
        F.pair_int64 p v
      | _ ->
        let s = random_string () in
        both (fun h -> F.string h s);
        F.pair_string p s
    done;
    let v1, v2 = F.values p in
    Alcotest.(check (pair int64 int64)) "pair = boxed folds" (!h1, !h2) (v1, v2)
  done;
  let p = F.pair ~prefix:"" in
  F.pair_int p min_int;
  Alcotest.(check int64) "min_int" (F.int F.seed min_int) (snd (F.values p))

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_int_in_bounds; prop_int_in_range; prop_shuffle_permutation;
      prop_float_bounds; prop_percentile_monotone; prop_mean_bounded;
      prop_transpose_involution; prop_solve_random_spd ]

let transport_qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_frame_roundtrip; prop_frame_garbage_total ]

let () =
  Alcotest.run "mp_util"
    [
      ("rng",
       [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
         Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
         Alcotest.test_case "split" `Quick test_rng_split;
         Alcotest.test_case "copy" `Quick test_rng_copy;
         Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
         Alcotest.test_case "weighted index" `Quick test_weighted_index;
         Alcotest.test_case "weighted zero" `Quick test_weighted_index_zero_total ]);
      ("stats",
       [ Alcotest.test_case "mean/variance" `Quick test_mean_variance;
         Alcotest.test_case "percentiles" `Quick test_percentiles;
         Alcotest.test_case "paae" `Quick test_paae;
         Alcotest.test_case "pearson" `Quick test_pearson;
         Alcotest.test_case "converged" `Quick test_converged ]);
      ("matrix",
       [ Alcotest.test_case "identity" `Quick test_matrix_identity;
         Alcotest.test_case "solve" `Quick test_matrix_solve;
         Alcotest.test_case "singular" `Quick test_matrix_singular;
         Alcotest.test_case "ols recovery" `Quick test_ols_recovery;
         Alcotest.test_case "nnls nonnegative" `Quick test_nnls_nonnegative;
         Alcotest.test_case "nnls recovery" `Quick test_nnls_recovery ]);
      ("text_table",
       [ Alcotest.test_case "render" `Quick test_text_table;
         Alcotest.test_case "too wide" `Quick test_text_table_too_wide;
         Alcotest.test_case "cells" `Quick test_cells ]);
      ("csv",
       [ Alcotest.test_case "basic" `Quick test_csv_basic;
         Alcotest.test_case "quoting" `Quick test_csv_quoting;
         Alcotest.test_case "padding" `Quick test_csv_padding ]);
      ("transport",
       Alcotest.
         [ test_case "empty round-trip" `Quick test_frame_empty_roundtrip;
           test_case "over-guard header rejected" `Quick
             test_frame_over_guard_rejected;
           test_case "negative length rejected" `Quick
             test_frame_negative_length_rejected;
           test_case "truncated header" `Quick test_frame_truncated_header;
           test_case "truncated payload" `Quick test_frame_truncated_payload;
           test_case "read timeout" `Quick test_frame_timeout;
           test_case "oversized write rejected" `Quick
             test_frame_oversized_write_rejected ]
       @ transport_qsuite);
      ("env", [ Alcotest.test_case "knob grammar" `Quick test_env_grammar ]);
      ("hashing",
       [ Alcotest.test_case "decimal writer = string_of_int" `Quick
           test_decimal_writer;
         Alcotest.test_case "fnv pair = boxed folds" `Quick test_fnv_pair ]);
      ("properties", qsuite);
    ]
