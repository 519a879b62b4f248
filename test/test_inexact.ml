(* Tests for the bit-parallel k-mismatch matcher (Shift-Add, the
   counting extension of Shift-Or), the fuzz oracle's [shift-add]
   subject. *)

open Stringmatch

let check = Alcotest.check
let bool = Alcotest.bool
let hits = Alcotest.(list (pair int int))

(* ------------------------------------------------------------------ *)
(* Shift-Add                                                           *)

let test_shift_or_basics () =
  check hits "overlapping" [ (0, 0); (1, 0); (2, 0) ]
    (Shift_or.search ~pattern:"aa" ~text:"aaaa" ~k:0);
  check hits "none" [] (Shift_or.search ~pattern:"gg" ~text:"acacac" ~k:0);
  check hits "one mismatch" [ (0, 1); (2, 1); (4, 1) ]
    (Shift_or.search ~pattern:"ag" ~text:"acacac" ~k:1)

let prop_shift_or_exact =
  (* At k = 0 Shift-Add is exact (Shift-Or) matching. *)
  Test_util.qtest ~count:300 "shift-or = naive"
    QCheck2.Gen.(pair (Test_util.dna_gen ~hi:300 ()) (Test_util.dna_gen ~lo:1 ~hi:8 ()))
    (fun (text, pattern) ->
      List.map fst (Shift_or.search ~pattern ~text ~k:0) = Naive.find_all ~pattern ~text)

let test_shift_or_limits () =
  let rejects name pattern k =
    match Shift_or.search ~pattern ~text:"acgt" ~k with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail name
  in
  rejects "empty pattern" "" 0;
  rejects "negative k" "a" (-1);
  rejects "overlong pattern" (String.make 32 'a') 0

let prop_shift_add_kmismatch =
  Test_util.qtest ~count:300 "shift-add = hamming"
    QCheck2.Gen.(
      tup3 (Test_util.dna_gen ~hi:200 ()) (Test_util.dna_gen ~lo:1 ~hi:12 ()) (int_range 0 4))
    (fun (text, pattern, k) ->
      (not (Shift_or.fits ~m:(String.length pattern) ~k))
      || Shift_or.search ~pattern ~text ~k = Hamming.search ~pattern ~text ~k)

let test_shift_add_fits () =
  check bool "12/4 fits" true (Shift_or.fits ~m:12 ~k:4);
  check bool "63/0 does not (needs 2 bits)" false (Shift_or.fits ~m:63 ~k:0);
  check bool "31/0 fits" true (Shift_or.fits ~m:31 ~k:0);
  check bool "negative k" false (Shift_or.fits ~m:5 ~k:(-1))

let test_shift_add_word_boundary () =
  (* Patterns that fill the word exactly (m * field bits = 62 or 63, so
     the top field sits at bit 60 or beyond).  Exercise each against the
     naive matcher with a hit flush at position 0, one mid-text, and a
     truncated suffix at the end, plus a homopolymer where every window
     is a hit. *)
  List.iter
    (fun (m, k) ->
      let name = Printf.sprintf "m=%d k=%d" m k in
      let p = String.init m (fun i -> "acgt".[i mod 4]) in
      let planted = p ^ "tt" ^ p ^ String.sub p 0 (m / 2) in
      check hits (name ^ " planted = hamming")
        (Hamming.search ~pattern:p ~text:planted ~k)
        (Shift_or.search ~pattern:p ~text:planted ~k);
      check bool (name ^ " hit at position 0") true
        (List.mem_assoc 0 (Shift_or.search ~pattern:p ~text:planted ~k));
      let homo = String.make m 'a' in
      List.iter
        (fun text ->
          check hits (name ^ " homopolymer = hamming")
            (Hamming.search ~pattern:homo ~text ~k)
            (Shift_or.search ~pattern:homo ~text ~k))
        [ String.make 100 'a'; homo; String.make (m - 1) 'a'; "" ])
    [ (31, 0); (21, 2); (9, 62) ]

let test_shift_add_fits_boundaries () =
  (* [fits ~m ~k] holds iff field_bits(k) * m <= 63.  Walk the exact
     frontier for several field widths. *)
  check bool "31/0 fits (2-bit fields)" true (Shift_or.fits ~m:31 ~k:0);
  check bool "32/0 does not" false (Shift_or.fits ~m:32 ~k:0);
  check bool "21/2 fits (3-bit fields)" true (Shift_or.fits ~m:21 ~k:2);
  check bool "22/2 does not" false (Shift_or.fits ~m:22 ~k:2);
  check bool "9/62 fits exactly (7-bit fields, m*b = 63)" true
    (Shift_or.fits ~m:9 ~k:62);
  check bool "10/62 does not" false (Shift_or.fits ~m:10 ~k:62);
  (* Overflow-hostile budgets must terminate and be rejected — the old
     field_bits looped forever (or accepted) once k+1 wrapped. *)
  check bool "max_int budget rejected" false (Shift_or.fits ~m:3 ~k:max_int);
  check bool "m=1 max_int rejected" false (Shift_or.fits ~m:1 ~k:max_int);
  check bool "2^61-1 budget rejected" false
    (Shift_or.fits ~m:2 ~k:2305843009213693951);
  (* The one shape where a gigantic budget legitimately fits: m = 1 with
     k below the 62-bit counter ceiling. *)
  check bool "m=1 k=2^60 fits" true (Shift_or.fits ~m:1 ~k:(1 lsl 60));
  check hits "m=1 k=2^60 = hamming"
    (Hamming.search ~pattern:"a" ~text:"acgt" ~k:(1 lsl 60))
    (Shift_or.search ~pattern:"a" ~text:"acgt" ~k:(1 lsl 60))

let test_shift_add_saturation () =
  (* Windows far above the budget must not wrap around into false
     positives, even over long runs. *)
  let text = String.make 200 'a' in
  let pattern = "tttttt" in
  check hits "no wraparound" [] (Shift_or.search ~pattern ~text ~k:2)

let () =
  Alcotest.run "inexact"
    [
      ( "shift_or",
        [
          Alcotest.test_case "basics" `Quick test_shift_or_basics;
          Alcotest.test_case "limits" `Quick test_shift_or_limits;
          Alcotest.test_case "fits" `Quick test_shift_add_fits;
          Alcotest.test_case "fits boundaries" `Quick test_shift_add_fits_boundaries;
          Alcotest.test_case "word boundary widest patterns" `Quick test_shift_add_word_boundary;
          Alcotest.test_case "saturation" `Quick test_shift_add_saturation;
          prop_shift_or_exact;
          prop_shift_add_kmismatch;
        ] );
    ]
