(* Tests for the bench-baseline schema and regression comparator:
   encode/parse round-trips, directory IO, threshold semantics
   (including the exact edge), structural findings, and the telemetry
   rule extended to perf tooling output. *)

open W5_obs

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let contains = W5_http.Substring.contains

let entry ?(runs = 3000) ?(r2 = 0.999) name ns =
  { Baseline.e_name = name; e_runs = runs; e_ns = ns; e_r2 = r2 }

let base_group =
  Baseline.make_group ~name:"e2e-request"
    [ entry "denied-view" 9000.0; entry "allowed-view" 12000.0 ]

(* ---- schema ---- *)

let test_roundtrip () =
  match Baseline.of_json (Baseline.to_json base_group) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok g ->
      check string_c "group name survives" "e2e-request" g.Baseline.g_name;
      check int_c "entry count" 2 (List.length g.Baseline.g_entries);
      (* make_group sorts, so the round-trip is byte-stable *)
      check string_c "re-encoding is byte-identical"
        (Baseline.to_json base_group)
        (Baseline.to_json g);
      check string_c "entries sorted by name" "allowed-view"
        (List.hd g.Baseline.g_entries).Baseline.e_name

let test_sanitizes_non_finite () =
  let g =
    Baseline.make_group ~name:"g" [ entry ~r2:Float.nan "a" Float.infinity ]
  in
  match g.Baseline.g_entries with
  | [ e ] ->
      check bool_c "ns sanitized" true (e.Baseline.e_ns = 0.0);
      check bool_c "r2 sanitized" true (e.Baseline.e_r2 = 0.0);
      check bool_c "emitted JSON parses back" true
        (Result.is_ok (Baseline.of_json (Baseline.to_json g)))
  | _ -> Alcotest.fail "expected one entry"

let test_rejects_bad_json () =
  check bool_c "garbage rejected" true
    (Result.is_error (Baseline.of_json "not json"));
  check bool_c "missing fields rejected" true
    (Result.is_error (Baseline.of_json "{\"group\":\"g\"}"));
  check bool_c "wrong schema version rejected" true
    (Result.is_error
       (Baseline.of_json
          "{\"schema_version\":99,\"group\":\"g\",\"results\":[]}"));
  check bool_c "trailing bytes rejected" true
    (Result.is_error
       (Baseline.of_json
          "{\"schema_version\":1,\"group\":\"g\",\"results\":[]}x"))

let test_dir_roundtrip () =
  (* a fresh directory under the system temp dir, removed afterwards:
     the test writes nothing where it runs *)
  let dir = Filename.temp_dir "w5-baseline-" "" in
  let remove_dir () =
    Array.iter
      (fun name -> Sys.remove (Filename.concat dir name))
      (Sys.readdir dir);
    Sys.rmdir dir
  in
  let groups =
    [
      Baseline.make_group ~name:"zeta" [ entry "a" 10.0 ];
      Baseline.make_group ~name:"alpha" [ entry "b" 20.0 ];
    ]
  in
  Fun.protect ~finally:remove_dir (fun () ->
      Baseline.save_dir ~dir groups;
      (match Baseline.load_dir dir with
      | Error e -> Alcotest.failf "load_dir failed: %s" e
      | Ok loaded ->
          check
            (Alcotest.list string_c)
            "groups load sorted by name" [ "alpha"; "zeta" ]
            (List.map (fun g -> g.Baseline.g_name) loaded));
      check bool_c "files named BENCH_<group>.json" true
        (Sys.file_exists (Filename.concat dir "BENCH_alpha.json")))

(* ---- comparison ---- *)

let diff ?threshold ?names_only ~fresh () =
  Baseline.compare_runs ?threshold ?names_only ~baseline:[ base_group ]
    ~fresh ()

let test_clean_run_is_quiet () =
  let fresh =
    [
      Baseline.make_group ~name:"e2e-request"
        [ entry "denied-view" 9100.0; entry "allowed-view" 11900.0 ];
    ]
  in
  let findings = diff ~fresh () in
  check int_c "no findings" 0 (List.length findings);
  check bool_c "no regression" false (Baseline.has_regression findings);
  check bool_c "text says ok" true
    (contains (Baseline.render_text findings) "no change beyond thresholds")

let test_regression_detected () =
  let fresh =
    [
      Baseline.make_group ~name:"e2e-request"
        [ entry "denied-view" 20000.0; entry "allowed-view" 12000.0 ];
    ]
  in
  let findings = diff ~fresh () in
  check bool_c "regression flagged" true (Baseline.has_regression findings);
  (match findings with
  | [ Baseline.Regression { name; base_ns; fresh_ns; _ } ] ->
      check string_c "right test" "denied-view" name;
      check bool_c "values carried" true
        (base_ns = 9000.0 && fresh_ns = 20000.0)
  | _ -> Alcotest.fail "expected exactly one regression");
  check bool_c "text verdict" true
    (contains (Baseline.render_text findings) "perf: REGRESSION");
  check bool_c "json verdict" true
    (contains (Baseline.render_json findings) "\"regression\":true")

let test_threshold_edge_is_strict () =
  (* default threshold 0.5: exactly base * 1.5 is NOT a regression,
     one ns over is *)
  let at_edge =
    [ Baseline.make_group ~name:"e2e-request"
        [ entry "denied-view" 13500.0; entry "allowed-view" 12000.0 ] ]
  in
  check int_c "exact edge passes" 0 (List.length (diff ~fresh:at_edge ()));
  let over =
    [ Baseline.make_group ~name:"e2e-request"
        [ entry "denied-view" 13501.0; entry "allowed-view" 12000.0 ] ]
  in
  check bool_c "just over fails" true
    (Baseline.has_regression (diff ~fresh:over ()))

let test_improvement_reported_not_failed () =
  let fresh =
    [ Baseline.make_group ~name:"e2e-request"
        [ entry "denied-view" 3000.0; entry "allowed-view" 12000.0 ] ]
  in
  let findings = diff ~fresh () in
  (match findings with
  | [ Baseline.Improvement { name; _ } ] ->
      check string_c "right test" "denied-view" name
  | _ -> Alcotest.fail "expected exactly one improvement");
  check bool_c "improvements don't fail the gate" false
    (Baseline.has_regression findings)

let test_missing_group_and_test_fail () =
  check bool_c "vanished group fails" true
    (Baseline.has_regression (diff ~fresh:[] ()));
  let fresh =
    [ Baseline.make_group ~name:"e2e-request" [ entry "denied-view" 9000.0 ] ]
  in
  let findings = diff ~fresh () in
  (match findings with
  | [ Baseline.Missing_test { name; _ } ] ->
      check string_c "right test" "allowed-view" name
  | _ -> Alcotest.fail "expected exactly one missing test");
  check bool_c "vanished test fails" true (Baseline.has_regression findings)

let test_new_entries_informational () =
  let fresh =
    [
      Baseline.make_group ~name:"e2e-request"
        [ entry "denied-view" 9000.0; entry "allowed-view" 12000.0;
          entry "brand-new" 5.0 ];
      Baseline.make_group ~name:"novel-group" [ entry "x" 1.0 ];
    ]
  in
  let findings = diff ~fresh () in
  check int_c "both novelties reported" 2 (List.length findings);
  check bool_c "novelty does not fail the gate" false
    (Baseline.has_regression findings);
  check bool_c "text suggests re-recording" true
    (contains (Baseline.render_text findings) "re-record")

let test_group_threshold_override () =
  (* label-ops tolerates 2x (threshold 1.0) where the default would
     have flagged *)
  let baseline = [ Baseline.make_group ~name:"label-ops" [ entry "join" 100.0 ] ] in
  let fresh = [ Baseline.make_group ~name:"label-ops" [ entry "join" 190.0 ] ] in
  check int_c "1.9x within label-ops threshold" 0
    (List.length (Baseline.compare_runs ~baseline ~fresh ()));
  let worse = [ Baseline.make_group ~name:"label-ops" [ entry "join" 210.0 ] ] in
  check bool_c "2.1x still fails" true
    (Baseline.has_regression (Baseline.compare_runs ~baseline ~fresh:worse ()))

let test_sub_ns_skipped () =
  let baseline = [ Baseline.make_group ~name:"g" [ entry "x" 0.4 ] ] in
  let fresh = [ Baseline.make_group ~name:"g" [ entry "x" 0.9 ] ] in
  check int_c "sub-ns estimates incomparable" 0
    (List.length (Baseline.compare_runs ~baseline ~fresh ()))

let test_names_only_mode () =
  (* a 10x slowdown is invisible to the structural gate... *)
  let fresh =
    [ Baseline.make_group ~name:"e2e-request"
        [ entry "denied-view" 90000.0; entry "allowed-view" 120000.0 ] ]
  in
  check int_c "values ignored" 0
    (List.length (diff ~names_only:true ~fresh ()));
  (* ...but a vanished test is not *)
  let dropped =
    [ Baseline.make_group ~name:"e2e-request" [ entry "denied-view" 9000.0 ] ]
  in
  check bool_c "structure still enforced" true
    (Baseline.has_regression (diff ~names_only:true ~fresh:dropped ()))

(* ---- skeleton + telemetry rule ---- *)

let test_schema_skeleton () =
  let skeleton = Baseline.schema_skeleton [ base_group ] in
  check bool_c "names the file" true (contains skeleton "BENCH_e2e-request.json");
  check bool_c "lists tests" true (contains skeleton "  denied-view");
  check bool_c "values absent" false (contains skeleton "9000")

let canary = "W5-CANARY-bf1083-do-not-export"

let test_no_user_bytes_in_perf_output () =
  (* Bench names are code-chosen constants; even if a payload-bearing
     name slipped into a baseline file, diff output must carry only
     what the schema defines. Render every output over normal groups
     and assert the canary (absent from the input) can't appear. *)
  let fresh =
    [ Baseline.make_group ~name:"e2e-request" [ entry "denied-view" 99000.0 ] ]
  in
  let findings = diff ~fresh () in
  List.iter
    (fun (name, rendered) ->
      check bool_c (name ^ " is payload-free") false (contains rendered canary))
    [
      ("diff text", Baseline.render_text findings);
      ("diff json", Baseline.render_json findings);
      ("skeleton", Baseline.schema_skeleton [ base_group ]);
      ("baseline json", Baseline.to_json base_group);
    ]

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_roundtrip;
    Alcotest.test_case "non-finite sanitized" `Quick test_sanitizes_non_finite;
    Alcotest.test_case "bad json rejected" `Quick test_rejects_bad_json;
    Alcotest.test_case "directory round-trip" `Quick test_dir_roundtrip;
    Alcotest.test_case "clean run is quiet" `Quick test_clean_run_is_quiet;
    Alcotest.test_case "regression detected" `Quick test_regression_detected;
    Alcotest.test_case "threshold edge strict" `Quick
      test_threshold_edge_is_strict;
    Alcotest.test_case "improvement informational" `Quick
      test_improvement_reported_not_failed;
    Alcotest.test_case "missing group/test fail" `Quick
      test_missing_group_and_test_fail;
    Alcotest.test_case "new entries informational" `Quick
      test_new_entries_informational;
    Alcotest.test_case "per-group threshold" `Quick
      test_group_threshold_override;
    Alcotest.test_case "sub-ns skipped" `Quick test_sub_ns_skipped;
    Alcotest.test_case "names-only mode" `Quick test_names_only_mode;
    Alcotest.test_case "schema skeleton" `Quick test_schema_skeleton;
    Alcotest.test_case "no user bytes in perf output" `Quick
      test_no_user_bytes_in_perf_output;
  ]
