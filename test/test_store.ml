(* Tests for the labeled object store: the record format, CRUD under
   labels, and the covert-channel-safe query engine (experiment E8). *)

open W5_difc
open W5_os
open W5_store

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Os_error.to_string e)

let run kernel ?(labels = Flow.bottom) ?(caps = Capability.Set.empty) ~name f =
  let result = ref None in
  let proc =
    match
      Kernel.spawn kernel ~name
        ~owner:(Kernel.kernel_principal kernel)
        ~labels ~caps ~limits:Resource.unlimited
        (fun ctx -> result := Some (f ctx))
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "spawn: %s" (Os_error.to_string e)
  in
  Kernel.run_proc kernel proc;
  match !result with
  | Some v -> v
  | None -> Alcotest.failf "process died: %s" (Format.asprintf "%a" Proc.pp proc)

(* ---- record format ---- *)

let test_record_basics () =
  let r = Record.of_fields [ ("a", "1"); ("b", "2") ] in
  check (Alcotest.option string_c) "get" (Some "1") (Record.get r "a");
  check string_c "get_or" "zzz" (Record.get_or r "missing" ~default:"zzz");
  let r = Record.set r "a" "10" in
  check (Alcotest.option string_c) "set replaces" (Some "10") (Record.get r "a");
  check int_c "cardinal" 2 (Record.cardinal r);
  let r = Record.remove r "b" in
  check bool_c "removed" false (Record.mem r "b");
  check (Alcotest.list string_c) "keys" [ "a" ] (Record.keys r)

let test_record_typed_fields () =
  let r = Record.set_int Record.empty "n" 42 in
  check (Alcotest.option int_c) "int" (Some 42) (Record.get_int r "n");
  check (Alcotest.option int_c) "bad int" None
    (Record.get_int (Record.set Record.empty "n" "x") "n");
  let r = Record.set_list Record.empty "xs" [ "a"; "b" ] in
  check (Alcotest.list string_c) "list" [ "a"; "b" ] (Record.get_list r "xs");
  check (Alcotest.list string_c) "empty list" [] (Record.get_list Record.empty "xs")

let test_record_encoding_edge_cases () =
  let nasty =
    Record.of_fields
      [ ("k=ey", "v=alue"); ("multi", "line\nvalue"); ("pct", "100%"); ("", "") ]
  in
  match Record.decode (Record.encode nasty) with
  | Ok r -> check bool_c "roundtrip" true (Record.equal nasty r)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_record_decode_errors () =
  (match Record.decode "noequals" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected decode error");
  match Record.decode "k=%zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected escape error"

(* Any byte, with the three the encoding escapes drawn often. *)
let gen_field_string =
  QCheck.Gen.(
    string_size (0 -- 12)
      ~gen:(frequency [ (1, oneofl [ '%'; '='; '\n' ]); (4, char) ]))

let arb_record =
  QCheck.make
    QCheck.Gen.(
      map Record.of_fields
        (list_size (0 -- 8) (pair gen_field_string gen_field_string)))
    ~print:(fun r -> Format.asprintf "%a" Record.pp r)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:500 arb_record
    (fun r ->
      match Record.decode (Record.encode r) with
      | Ok r' -> Record.equal r r'
      | Error _ -> false)

let test_record_format_pinned () =
  let encode fields = Record.encode (Record.of_fields fields) in
  check string_c "escapes" "k%3dey=v%25%0a" (encode [ ("k=ey", "v%\n") ]);
  check string_c "one line per field" "a=1\nb=" (encode [ ("a", "1"); ("b", "") ]);
  check string_c "empty record" "" (encode []);
  match Record.decode "k%3dey=v%25%0a\na=b" with
  | Ok r ->
      check
        (Alcotest.list (Alcotest.pair string_c string_c))
        "decodes" [ ("k=ey", "v%\n"); ("a", "b") ] (Record.fields r)
  | Error e -> Alcotest.failf "decode failed: %s" e

(* Strings over the escaped bytes and the digits and letters of their
   escapes, so valid, unknown and truncated escapes, separators and
   missing '=' all occur. *)
let gen_codec_string size =
  QCheck.Gen.(
    string_size size
      ~gen:(oneofl [ '%'; '='; '\n'; '2'; '5'; '3'; 'd'; '0'; 'a'; 'z' ]))

let prop_record_matches_reference =
  QCheck.Test.make ~name:"record codec agrees with the byte-by-byte reference"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (list (pair string string)) string)
       QCheck.Gen.(
         pair
           (list_size (0 -- 6)
              (pair (gen_codec_string (0 -- 8)) (gen_codec_string (0 -- 8))))
           (gen_codec_string (0 -- 40))))
    (fun (fields, raw) ->
      let decodes_alike s =
        Result.map Record.fields (Record.decode s) = Record_ref.decode s
      in
      Record.encode (Record.of_fields fields) = Record_ref.encode fields
      && decodes_alike (Record_ref.encode fields)
      && decodes_alike raw)

(* ---- object store ---- *)

let with_store f =
  let kernel = Kernel.create () in
  run kernel ~name:"store-init" (fun ctx -> ok (Obj_store.init ctx));
  (kernel, f)

let test_obj_store_crud () =
  let kernel, () = with_store () in
  run kernel ~name:"crud" (fun ctx ->
      ok (Obj_store.create_collection ctx "pets" ~labels:Flow.bottom);
      let rex = Record.of_fields [ ("species", "dog") ] in
      ok (Obj_store.put ctx ~collection:"pets" ~id:"rex" ~labels:Flow.bottom rex);
      check bool_c "exists" true (Obj_store.exists ctx ~collection:"pets" ~id:"rex");
      let back = ok (Obj_store.get ctx ~collection:"pets" ~id:"rex" ()) in
      check bool_c "roundtrip" true (Record.equal rex back);
      check int_c "version 1" 1 (ok (Obj_store.version_of ctx ~collection:"pets" ~id:"rex"));
      ok
        (Obj_store.put ctx ~collection:"pets" ~id:"rex" ~labels:Flow.bottom
           (Record.set rex "species" "wolf"));
      check int_c "version 2" 2 (ok (Obj_store.version_of ctx ~collection:"pets" ~id:"rex"));
      check (Alcotest.list string_c) "list" [ "rex" ]
        (ok (Obj_store.list ctx ~collection:"pets"));
      ok (Obj_store.delete ctx ~collection:"pets" ~id:"rex");
      check bool_c "deleted" false (Obj_store.exists ctx ~collection:"pets" ~id:"rex"))

let test_obj_store_label_enforcement () =
  let kernel, () = with_store () in
  let tag = Tag.fresh ~name:"store.s" Tag.Secrecy in
  let secret = Flow.make ~secrecy:(Label.singleton tag) () in
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx "inbox" ~labels:Flow.bottom);
      ok
        (Obj_store.put ctx ~collection:"inbox" ~id:"love-letter" ~labels:secret
           (Record.of_fields [ ("to", "alice") ])));
  run kernel ~name:"snoop" (fun ctx ->
      (* strict get denied; tainting get allowed and taints *)
      (match Obj_store.get ctx ~collection:"inbox" ~id:"love-letter" () with
      | Error e when Os_error.is_denied e -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected denial");
      let r = ok (Obj_store.get ctx ~taint:true ~collection:"inbox" ~id:"love-letter" ()) in
      check (Alcotest.option string_c) "content" (Some "alice") (Record.get r "to");
      check bool_c "tainted" true
        (Label.mem tag (Syscall.my_labels ctx).Flow.secrecy))

(* ---- query engine ---- *)

let seed_inbox kernel =
  (* three public rows and one secret row *)
  let tag = Tag.fresh ~name:"q.secret" Tag.Secrecy in
  let secret = Flow.make ~secrecy:(Label.singleton tag) () in
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx "msgs" ~labels:Flow.bottom);
      List.iter
        (fun (id, sender) ->
          ok
            (Obj_store.put ctx ~collection:"msgs" ~id ~labels:Flow.bottom
               (Record.of_fields [ ("from", sender); ("n", id) ])))
        [ ("m1", "bob"); ("m2", "carol"); ("m3", "bob") ];
      ok
        (Obj_store.put ctx ~collection:"msgs" ~id:"m4" ~labels:secret
           (Record.of_fields [ ("from", "secret-admirer"); ("n", "m4") ])));
  tag

let test_query_predicates () =
  let r = Record.of_fields [ ("from", "bob"); ("score", "10") ] in
  let holds p = Query.eval p r in
  check bool_c "equals" true (holds (Query.field_equals "from" "bob"));
  check bool_c "not equals" false (holds (Query.field_equals "from" "carol"));
  check bool_c "contains" true (holds (Query.field_contains "from" "ob"));
  check bool_c "contains empty" true (holds (Query.field_contains "from" ""));
  check bool_c "missing field" false (holds (Query.field_contains "nope" "x"));
  check bool_c "int at least" true (holds (Query.field_int_at_least "score" 10));
  check bool_c "int below" false (holds (Query.field_int_at_least "score" 11));
  check bool_c "and" true
    (holds Query.(field_equals "from" "bob" &&& has_field "score"));
  check bool_c "or" true
    (holds Query.(field_equals "from" "x" ||| has_field "score"));
  check bool_c "not" false (holds (Query.not_ Query.always))

let test_query_taints_with_all_rows () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  let tag = seed_inbox kernel in
  run kernel ~name:"safe-query" (fun ctx ->
      (* The query matches only public rows, yet the caller absorbs
         the secret row's taint because it was scanned. *)
      let results =
        ok (Query.select ctx ~collection:"msgs" ~where:(Query.field_equals "from" "bob"))
      in
      check int_c "two bobs" 2 (List.length results);
      check bool_c "scanned-taint" true
        (Label.mem tag (Syscall.my_labels ctx).Flow.secrecy))

let test_query_leaky_baseline_leaks_shape () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  let tag = seed_inbox kernel in
  run kernel ~name:"leaky-query" (fun ctx ->
      (* The unsafe engine skips the unreadable row: result shape now
         depends on data the caller never became tainted by. *)
      let results = ok (Query.select_leaky ctx ~collection:"msgs" ~where:Query.always) in
      check int_c "secret row invisible" 3 (List.length results);
      check bool_c "caller unt tainted" false
        (Label.mem tag (Syscall.my_labels ctx).Flow.secrecy))

let test_query_count () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  ignore (seed_inbox kernel);
  run kernel ~name:"agg" (fun ctx ->
      check int_c "count" 4 (ok (Query.count ctx ~collection:"msgs" ~where:Query.always)))

let test_query_covert_channel_blocked_at_export () =
  (* The full E8 story: a prober computes a bit from the presence of a
     secret row; with the safe engine the bit is tainted and the
     "export" (modeled as writing to a public file) is denied. *)
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  ignore (seed_inbox kernel);
  run kernel ~name:"prober" (fun ctx ->
      let n = ok (Query.count ctx ~collection:"msgs" ~where:Query.always) in
      let bit = if n >= 4 then "1" else "0" in
      match Syscall.create_file ctx "/probe-result" ~labels:Flow.bottom ~data:bit with
      | Error e when Os_error.is_denied e -> ()
      | Ok () -> Alcotest.fail "covert bit escaped"
      | Error e -> Alcotest.failf "wrong error: %s" (Os_error.to_string e))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "record basics" `Quick test_record_basics;
    Alcotest.test_case "record typed fields" `Quick test_record_typed_fields;
    Alcotest.test_case "record encoding edge cases" `Quick
      test_record_encoding_edge_cases;
    Alcotest.test_case "record decode errors" `Quick test_record_decode_errors;
    Alcotest.test_case "obj store crud" `Quick test_obj_store_crud;
    Alcotest.test_case "obj store labels" `Quick test_obj_store_label_enforcement;
    Alcotest.test_case "query predicates" `Quick test_query_predicates;
    Alcotest.test_case "query taints with all rows" `Quick
      test_query_taints_with_all_rows;
    Alcotest.test_case "leaky baseline leaks shape" `Quick
      test_query_leaky_baseline_leaks_shape;
    Alcotest.test_case "query count" `Quick test_query_count;
    Alcotest.test_case "covert channel blocked at export" `Quick
      test_query_covert_channel_blocked_at_export;
  ]
  @ [ Alcotest.test_case "record format pinned" `Quick test_record_format_pinned ]
  @ qsuite [ prop_record_roundtrip; prop_record_matches_reference ]

(* ---- additional store edges ---- *)

let test_obj_store_sanitize_and_paths () =
  (* '/' escapes to "_s" and literal '_' doubles, so names that used
     to collide ("a/b" vs "a_b") now map to distinct paths *)
  check Alcotest.string "collection path" "/store/a_sb"
    (Obj_store.collection_path "a/b");
  check Alcotest.string "object path" "/store/c/x_sy"
    (Obj_store.object_path "c" "x/y");
  check Alcotest.string "underscore doubles" "/store/a__b"
    (Obj_store.collection_path "a_b");
  check bool_c "no aliasing" true
    (Obj_store.collection_path "a/b" <> Obj_store.collection_path "a_b")

let test_collection_listing_requires_flow () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  let tag = Tag.fresh ~name:"coll.s" Tag.Secrecy in
  run kernel ~name:"seed" (fun ctx ->
      ok
        (Obj_store.create_collection ctx "hidden"
           ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())));
  (* an untainted process cannot list a secret collection *)
  run kernel ~name:"snoop" (fun ctx ->
      match Obj_store.list ctx ~collection:"hidden" with
      | Error e when Os_error.is_denied e -> ()
      | Ok _ -> Alcotest.fail "listed a secret collection"
      | Error e -> Alcotest.failf "wrong error: %s" (Os_error.to_string e));
  (* a tainted one can *)
  run kernel
    ~labels:(Flow.make ~secrecy:(Label.singleton tag) ())
    ~name:"insider" (fun ctx ->
      check (Alcotest.list Alcotest.string) "empty listing" []
        (ok (Obj_store.list ctx ~collection:"hidden")))

let test_query_on_missing_collection () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  run kernel ~name:"querier" (fun ctx ->
      match Query.select ctx ~collection:"ghost" ~where:Query.always with
      | Error (Os_error.Not_found _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Not_found")

let test_undecodable_rows_skipped () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  run kernel ~name:"mixed" (fun ctx ->
      ok (Obj_store.create_collection ctx "mixed" ~labels:Flow.bottom);
      ok
        (Obj_store.put ctx ~collection:"mixed" ~id:"good" ~labels:Flow.bottom
           (Record.of_fields [ ("k", "v") ]));
      (* a hostile app writes garbage straight into the collection *)
      ok
        (Syscall.create_file ctx
           (Obj_store.object_path "mixed" "junk")
           ~labels:Flow.bottom ~data:"%%%not-a-record%%%");
      let rows = ok (Query.select ctx ~collection:"mixed" ~where:Query.always) in
      check int_c "junk skipped" 1 (List.length rows))

let suite =
  suite
  @ [
      Alcotest.test_case "obj store sanitize" `Quick
        test_obj_store_sanitize_and_paths;
      Alcotest.test_case "collection listing requires flow" `Quick
        test_collection_listing_requires_flow;
      Alcotest.test_case "query on missing collection" `Quick
        test_query_on_missing_collection;
      Alcotest.test_case "undecodable rows skipped" `Quick
        test_undecodable_rows_skipped;
    ]

let test_obj_store_delete_missing () =
  let kernel, () = with_store () in
  run kernel ~name:"deleter" (fun ctx ->
      ok (Obj_store.create_collection ctx "c" ~labels:Flow.bottom);
      match Obj_store.delete ctx ~collection:"c" ~id:"ghost" with
      | Error (Os_error.Not_found _) -> ()
      | Ok () | Error _ -> Alcotest.fail "deleted a ghost")

let test_record_pp_and_fields () =
  let r = Record.of_fields [ ("a", "1") ] in
  check bool_c "pp" true (String.length (Format.asprintf "%a" Record.pp r) > 0);
  check (Alcotest.list (Alcotest.pair string_c string_c)) "fields" [ ("a", "1") ]
    (Record.fields r);
  check bool_c "empty equal" true (Record.equal Record.empty (Record.of_fields []))

let suite =
  suite
  @ [
      Alcotest.test_case "obj store delete missing" `Quick
        test_obj_store_delete_missing;
      Alcotest.test_case "record pp and fields" `Quick test_record_pp_and_fields;
    ]

let rows_scanned kernel =
  W5_obs.Metrics.value
    (W5_obs.Metrics.counter (Kernel.metrics kernel) "w5_store_rows_scanned_total")

let test_select_limit_short_circuits_but_taints () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  let tag = seed_inbox kernel in
  run kernel ~name:"paged" (fun ctx ->
      let before = rows_scanned kernel in
      let rows =
        ok (Query.select ~limit:1 ctx ~collection:"msgs" ~where:Query.always)
      in
      check int_c "one row returned" 1 (List.length rows);
      (* the limit stops the walk after the first match... *)
      check int_c "one row visited" 1 (rows_scanned kernel - before);
      (* ...yet the taint is the full collection's: the label summary
         was absorbed before any row was read, so skipping rows can
         never launder their secrecy *)
      check bool_c "full-collection taint" true
        (Label.mem tag (Syscall.my_labels ctx).Flow.secrecy))

let suite =
  suite
  @ [
      Alcotest.test_case "select limit short-circuits but taints" `Quick
        test_select_limit_short_circuits_but_taints;
    ]

(* final store edges *)
let test_query_operators_compose () =
  let r = Record.of_fields [ ("a", "1"); ("b", "2") ] in
  let open Query in
  check bool_c "nested and/or" true
    (eval
       ((field_equals "a" "1" &&& field_equals "b" "2")
       ||| field_equals "a" "9")
       r);
  check bool_c "not over and" true
    (eval (not_ (field_equals "a" "9" &&& field_equals "b" "2")) r)

let test_obj_store_get_missing () =
  let kernel, () = with_store () in
  run kernel ~name:"getter" (fun ctx ->
      ok (Obj_store.create_collection ctx "c2" ~labels:Flow.bottom);
      match Obj_store.get ctx ~collection:"c2" ~id:"nope" () with
      | Error (Os_error.Not_found _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "got a ghost");
  run kernel ~name:"labeler" (fun ctx ->
      match Obj_store.labels_of ctx ~collection:"c2" ~id:"nope" with
      | Error (Os_error.Not_found _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "labeled a ghost")

let suite =
  suite
  @ [
      Alcotest.test_case "query operators compose" `Quick
        test_query_operators_compose;
      Alcotest.test_case "obj store get missing" `Quick test_obj_store_get_missing;
    ]
