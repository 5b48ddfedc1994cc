(* Tests for zmsq_util: RNG, statistics, env parsing. *)

module Rng = Zmsq_util.Rng
module Stats = Zmsq_util.Stats

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* {2 Rng} *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 () and b = Rng.create ~seed:1 () in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 () and b = Rng.create ~seed:2 () in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 () in
  let a = Rng.split parent and b = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check Alcotest.bool "split streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check Alcotest.bool "in bounds" true (v >= 0 && v < 17)
  done

let test_rng_int_uniformish () =
  let rng = Rng.create ~seed:5 () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      check Alcotest.bool (Printf.sprintf "bucket %d near uniform" i) true
        (abs (c - expected) < expected / 5))
    buckets

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:11 () in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check Alcotest.bool "float in bounds" true (v >= 0.0 && v < 2.5)
  done

let test_rng_normal_moments () =
  let rng = Rng.create ~seed:13 () in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng ~mean:100.0 ~stddev:15.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  check Alcotest.bool "mean near 100" true (Float.abs (m -. 100.0) < 0.5);
  check Alcotest.bool "stddev near 15" true (Float.abs (sd -. 15.0) < 0.5)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:17 () in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.exponential rng ~rate:0.5) in
  check Alcotest.bool "mean near 1/rate" true (Float.abs (Stats.mean xs -. 2.0) < 0.1)

let test_rng_permutation () =
  let rng = Rng.create ~seed:19 () in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.bool "is permutation" true (sorted = Array.init 100 Fun.id)

let test_rng_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "exp rate" (Invalid_argument "Rng.exponential: rate must be positive")
    (fun () -> ignore (Rng.exponential rng ~rate:0.0))

(* The first 16 [int64] outputs for three seeds, and for the child of one
   [split], recorded from the original four-field implementation. Graph
   generation and every seeded run depend on this stream staying
   bit-identical. *)
let rng_golden =
  [
    ( 0, false,
      [|
        0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL;
        0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL; 0x6c160deed2f54c98L; 0x8920ad648fc30a3fL;
        0xdb032c0ba7539731L; 0xeb3a475a3e749a3dL; 0x1d42993fa43f2a54L; 0x11361bf526a14bb5L;
        0x1b4f07a5ab3d8e9cL; 0xa7a3257f6986db7fL; 0x7efdaa95605dfc9cL; 0x4bde97c0a78eaab8L;
      |] );
    ( 0, true,
      [|
        0x4c94e4a98a1709ebL; 0x48235b11b4380ed6L; 0x757ef423c8f581ccL; 0x2c24c674801072L;
        0xd53f70483a2f04fbL; 0x80dc4ed1c28511ceL; 0x246b1ce0f7023790L; 0x2ee31c1a573874ceL;
        0xeadb36ab158b7dbcL; 0xef60edf5362e8f4bL; 0xdc8796390c6d5dfeL; 0xedc9fa6315e8718cL;
        0x408e8a6068882ebcL; 0xe540736f3393841dL; 0x19a7b91d080783caL; 0x984f262b5a8c960eL;
      |] );
    ( 1, false,
      [|
        0xb3f2af6d0fc710c5L; 0x853b559647364ceaL; 0x92f89756082a4514L; 0x642e1c7bc266a3a7L;
        0xb27a48e29a233673L; 0x24c123126ffda722L; 0x123004ef8df510e6L; 0x61954dcc47b1e89dL;
        0xddfdb48ab9ed4a21L; 0x8d3cdb8c3aa5b1d0L; 0xeebd114bd87226d1L; 0xf50c3ff1e7d7e8a6L;
        0xeeca3115e23bc8f1L; 0xab49ed3db4c66435L; 0x99953c6c57808dd7L; 0xe3fa941b05219325L;
      |] );
    ( 1, true,
      [|
        0x2c83f301eb3f9c90L; 0x4e876d9fae53f0b8L; 0x516ba84e3a541549L; 0x18a46d9d1df806fcL;
        0x1bd0300adeab8c41L; 0x7214c066a1fe58a2L; 0x5f0bbff67811c95cL; 0xc91a3e119a09992cL;
        0x6bba67f2a7dd1830L; 0x8dbe82edc0cfdc6L; 0x5a4555a3ddff2a16L; 0x7d39e681bb2a666eL;
        0x28f59e9e5db2ce4bL; 0x389d43c223b55979L; 0x6eaa704a0b42ffbbL; 0x9b5ae0dc17c19feaL;
      |] );
    ( 0x5DEECE66D, false,
      [|
        0xb7bd9587c4150d11L; 0x8f7cb3a60f64dfacL; 0x853abe00b135b441L; 0xff201a48294f358cL;
        0xcd280305d5338dedL; 0x1cc38fa1b04dd2d7L; 0xdb0d886a11ad4d72L; 0x36316447cbd81d37L;
        0x33be42a369e2d91bL; 0x31e6af665633f958L; 0x126b6d57cd901420L; 0x6e9eecdd4ad59576L;
        0x5a69261d323b3f8aL; 0xf630ebdc1dc8a716L; 0xb4706e9954cab6aeL; 0xb6af123220b6231cL;
      |] );
    ( 0x5DEECE66D, true,
      [|
        0x6e234af248b59c52L; 0xddf49580830d65fdL; 0x46d8b41e7fb42001L; 0x2091c3ed957514b2L;
        0xff9c964505fb626cL; 0x5d2a9d7bfeec17c4L; 0x98b8c309f234b735L; 0xee4b6c12dbd274b6L;
        0x7f0279877f78eecaL; 0x5f0b8844b0e21b22L; 0x75764cfdb972b22eL; 0xe302324ecaad2582L;
        0x64b1aadf13607e82L; 0x9c4926b774935244L; 0xb0b31686ca92e815L; 0xf9698dcefd339635L;
      |] );
  ]

let test_rng_golden () =
  List.iter
    (fun (seed, split, expected) ->
      let rng = Rng.create ~seed () in
      let rng = if split then Rng.split rng else rng in
      Array.iteri
        (fun i want ->
          check Alcotest.int64 (Printf.sprintf "seed %#x split=%b draw %d" seed split i) want
            (Rng.int64 rng))
        expected)
    rng_golden

(* A draw must not allocate: the queue draws on every leaf probe. *)
let test_rng_no_alloc () =
  let rng = Rng.create ~seed:9 () in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc lxor Rng.bits rng
  done;
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.0) "minor words for 10K bits draws" 0.0 (w1 -. w0)

let prop_rng_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let rng = Rng.create ~seed:23 () in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* {2 Stats} *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "mean" 3.0 s.Stats.mean;
  check (Alcotest.float 1e-9) "median" 3.0 s.Stats.median;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 5.0 s.Stats.max;
  check Alcotest.int "n" 5 s.Stats.n

let test_stats_stddev () =
  (* sample stddev of 2,4,4,4,5,5,7,9 is ~2.138 *)
  let sd = Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check Alcotest.bool "stddev" true (Float.abs (sd -. 2.138) < 0.01)

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p0" 0.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile xs 100.0)

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean [||]))

let test_histogram () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  check Alcotest.int "count" 1000 (Stats.Histogram.count h);
  check Alcotest.bool "mean near 500" true (Float.abs (Stats.Histogram.mean h -. 500.5) < 1.0);
  let p50 = Stats.Histogram.percentile h 50.0 in
  check Alcotest.bool "p50 bucket sane" true (p50 >= 256.0 && p50 <= 1024.0)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.add a 10.0;
  Stats.Histogram.add b 20.0;
  let m = Stats.Histogram.merge a b in
  check Alcotest.int "merged count" 2 (Stats.Histogram.count m);
  check Alcotest.int "a unchanged" 1 (Stats.Histogram.count a)

let test_histogram_bucket0 () =
  (* Bucket 0 conflates everything below 2.0 — including zero, negatives
     and sub-1ns values — and must also absorb NaN rather than crash or
     index out of bounds. *)
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 0.0; 0.3; 1.999; -5.0; Float.nan; Float.neg_infinity ];
  check Alcotest.int "count" 6 (Stats.Histogram.count h);
  (match Stats.Histogram.buckets h with
  | [ (ub, n) ] ->
      check (Alcotest.float 1e-9) "single bucket ub" 2.0 ub;
      check Alcotest.int "all six conflated" 6 n
  | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs));
  check (Alcotest.float 1e-9) "p99 is bucket-0 ub" 2.0 (Stats.Histogram.percentile h 99.0)

let test_histogram_buckets () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1.0; 3.0; 3.5; 1000.0 ];
  let bs = Stats.Histogram.buckets h in
  check Alcotest.int "three populated buckets" 3 (List.length bs);
  check Alcotest.bool "ascending upper bounds" true
    (List.sort compare bs = bs);
  check Alcotest.int "counts total" 4 (List.fold_left (fun a (_, n) -> a + n) 0 bs);
  (* 3.0 and 3.5 share the (2,4] bucket. *)
  check Alcotest.bool "pair bucket present" true (List.mem (4.0, 2) bs);
  check (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
    "empty histogram" [] (Stats.Histogram.buckets (Stats.Histogram.create ()))

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (l, p) ->
      let xs = Array.of_list (List.map Float.abs l) in
      let v = Stats.percentile xs (Float.abs p) in
      let lo = Array.fold_left min xs.(0) xs and hi = Array.fold_left max xs.(0) xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* {2 Env} *)

let test_env_defaults () =
  Unix.putenv "ZMSQ_TEST_UNSET" "";
  check Alcotest.int "int default" 42 (Zmsq_util.Env.int "ZMSQ_TEST_NOPE" ~default:42);
  Unix.putenv "ZMSQ_TEST_INT" "17";
  check Alcotest.int "int parse" 17 (Zmsq_util.Env.int "ZMSQ_TEST_INT" ~default:0);
  Unix.putenv "ZMSQ_TEST_INT" "bogus";
  check Alcotest.int "int malformed" 7 (Zmsq_util.Env.int "ZMSQ_TEST_INT" ~default:7);
  Unix.putenv "ZMSQ_TEST_LIST" "1,2, 8";
  check (Alcotest.list Alcotest.int) "int list" [ 1; 2; 8 ]
    (Zmsq_util.Env.int_list "ZMSQ_TEST_LIST" ~default:[])

let test_timing_monotonic () =
  let a = Zmsq_util.Timing.now_ns () in
  let b = Zmsq_util.Timing.now_ns () in
  check Alcotest.bool "monotonic" true (b >= a);
  let (), dt = Zmsq_util.Timing.time_it (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))) in
  check Alcotest.bool "time_it positive" true (dt >= 0.0)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int uniform-ish", `Quick, test_rng_int_uniformish);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng normal moments", `Quick, test_rng_normal_moments);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng permutation", `Quick, test_rng_permutation);
    ("rng invalid args", `Quick, test_rng_invalid);
    ("rng golden vectors", `Quick, test_rng_golden);
    ("rng bits allocation-free", `Quick, test_rng_no_alloc);
    qtest prop_rng_shuffle_preserves;
    ("stats summary", `Quick, test_stats_summary);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats empty", `Quick, test_stats_empty);
    ("histogram basic", `Quick, test_histogram);
    ("histogram merge", `Quick, test_histogram_merge);
    ("histogram bucket-0 conflation", `Quick, test_histogram_bucket0);
    ("histogram buckets accessor", `Quick, test_histogram_buckets);
    qtest prop_percentile_bounds;
    ("env parsing", `Quick, test_env_defaults);
    ("timing monotonic", `Quick, test_timing_monotonic);
  ]
