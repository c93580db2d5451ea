(* Tests for the label-safe secondary-index layer: candidate sets are
   hints only — every query must return exactly what a full tainting
   scan would, impose the same taint, and fail with the same denials,
   while visiting far fewer rows. *)

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

let fresh_store () =
  let kernel = Kernel.create () in
  run kernel ~name:"init" (fun ctx -> ok (Obj_store.init ctx));
  kernel

let counter kernel name =
  W5_obs.Metrics.value (W5_obs.Metrics.counter (Kernel.metrics kernel) name)

let rows_scanned kernel = counter kernel "w5_store_rows_scanned_total"
let index_hits kernel = counter kernel "w5_store_index_hits_total"

let put ctx ~collection ~id ?(labels = Flow.bottom) fields =
  ok (Obj_store.put ctx ~collection ~id ~labels (Record.of_fields fields))

(* ---- store_path: injective escaping ---- *)

let test_sanitize_injective () =
  (* "a/b" and "a_b" used to alias to the same on-disk name *)
  check bool_c "slash vs underscore" true
    (Store_path.sanitize "a/b" <> Store_path.sanitize "a_b");
  check string_c "slash" "a_sb" (Store_path.sanitize "a/b");
  check string_c "underscore doubles" "a__b" (Store_path.sanitize "a_b");
  List.iter
    (fun name ->
      check string_c
        ("roundtrip " ^ name)
        name
        (Store_path.unsanitize (Store_path.sanitize name)))
    [ "plain"; "a/b"; "a_b"; "a__b"; "_"; "/"; "_s"; "a_sb"; "" ]

let prop_sanitize_roundtrip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        string_size (0 -- 16)
          ~gen:(oneof [ map Char.chr (97 -- 122); return '_'; return '/' ]))
      ~print:(fun s -> s)
  in
  QCheck.Test.make ~name:"sanitize roundtrips" ~count:500 arb (fun name ->
      Store_path.unsanitize (Store_path.sanitize name) = name)

let test_no_aliasing_in_store () =
  (* two logically distinct ids must be two distinct objects *)
  let kernel = fresh_store () in
  run kernel ~name:"writer" (fun ctx ->
      ok (Obj_store.create_collection ctx "files" ~labels:Flow.bottom);
      put ctx ~collection:"files" ~id:"a/b" [ ("v", "slash") ];
      put ctx ~collection:"files" ~id:"a_b" [ ("v", "underscore") ];
      check string_c "slash object" "slash"
        (Record.get_or
           (ok (Obj_store.get ctx ~collection:"files" ~id:"a/b" ()))
           "v" ~default:"?");
      check string_c "underscore object" "underscore"
        (Record.get_or
           (ok (Obj_store.get ctx ~collection:"files" ~id:"a_b" ()))
           "v" ~default:"?");
      (* listing returns logical ids in logical order *)
      check (Alcotest.list string_c) "list" [ "a/b"; "a_b" ]
        (ok (Obj_store.list ctx ~collection:"files")))

(* ---- query engine edges ---- *)

let test_field_contains_large_value () =
  (* ~1 MB field: the old recursive substring search overflowed *)
  let big = String.make (1024 * 1024) 'x' ^ "needle" in
  let r = Record.of_fields [ ("blob", big) ] in
  check bool_c "found at end" true
    (Query.eval (Query.field_contains "blob" "needle") r);
  check bool_c "absent" false
    (Query.eval (Query.field_contains "blob" "absent") r);
  let kernel = fresh_store () in
  run kernel ~name:"querier" (fun ctx ->
      ok (Obj_store.create_collection ctx "blobs" ~labels:Flow.bottom);
      put ctx ~collection:"blobs" ~id:"b1" [ ("blob", big) ];
      let rows =
        ok
          (Query.select ctx ~collection:"blobs"
             ~where:(Query.field_contains "blob" "needle"))
      in
      check int_c "selected through 1MB field" 1 (List.length rows))

(* ---- indexed vs scan: results, metering, acceptance ratio ---- *)

let seed_flat kernel ~collection ~rows ~matches =
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx collection ~labels:Flow.bottom);
      Index.declare ctx ~collection ~field:"u" Index.Equality;
      Index.declare ctx ~collection ~field:"score" Index.Int_order;
      for i = 0 to rows - 1 do
        put ctx ~collection
          ~id:(Printf.sprintf "r%05d" i)
          [
            ("u", if i < matches then "hot" else "u" ^ string_of_int i);
            ("score", string_of_int i);
          ]
      done)

let select_ids ctx ~use_index ~collection where =
  List.map fst (ok (Query.select ctx ~use_index ~collection ~where))

let test_indexed_equals_scan () =
  let kernel = fresh_store () in
  seed_flat kernel ~collection:"c" ~rows:40 ~matches:3;
  run kernel ~name:"querier" (fun ctx ->
      let check_same name where =
        check (Alcotest.list string_c) name
          (select_ids ctx ~use_index:false ~collection:"c" where)
          (select_ids ctx ~use_index:true ~collection:"c" where)
      in
      let hits = index_hits kernel in
      check_same "equality" (Query.field_equals "u" "hot");
      check_same "range" (Query.field_int_at_least "score" 35);
      check_same "conjunction"
        Query.(field_equals "u" "hot" &&& field_int_at_least "score" 1);
      check_same "miss" (Query.field_equals "u" "nobody");
      check bool_c "index served the indexed arms" true
        (index_hits kernel - hits >= 4))

let test_acceptance_ratio () =
  (* the PR's bar: >= 50x fewer labeled row reads than a scan *)
  let rows = 1000 and matches = 10 in
  let kernel = fresh_store () in
  seed_flat kernel ~collection:"big" ~rows ~matches;
  run kernel ~name:"querier" (fun ctx ->
      let where = Query.field_equals "u" "hot" in
      let s0 = rows_scanned kernel in
      let indexed = select_ids ctx ~use_index:true ~collection:"big" where in
      let s1 = rows_scanned kernel in
      let scanned = select_ids ctx ~use_index:false ~collection:"big" where in
      let s2 = rows_scanned kernel in
      check (Alcotest.list string_c) "same rows" scanned indexed;
      check int_c "indexed visits only the matches" matches (s1 - s0);
      check int_c "scan visits everything" rows (s2 - s1);
      check bool_c "at least 50x fewer" true ((s2 - s1) / max 1 (s1 - s0) >= 50))

(* ---- taint and denial equivalence ---- *)

let test_indexed_taint_equals_scan_taint () =
  let kernel = fresh_store () in
  let tag = Tag.fresh ~name:"idx.s" Tag.Secrecy in
  let secret = Flow.make ~secrecy:(Label.singleton tag) () in
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx "msgs" ~labels:Flow.bottom);
      Index.declare ctx ~collection:"msgs" ~field:"u" Index.Equality;
      put ctx ~collection:"msgs" ~id:"m1" [ ("u", "bob") ];
      put ctx ~collection:"msgs" ~id:"m2" ~labels:secret
        [ ("u", "secret-admirer") ]);
  let taint_after use_index =
    run kernel ~name:"querier" (fun ctx ->
        let ids = select_ids ctx ~use_index ~collection:"msgs"
            (Query.field_equals "u" "bob") in
        check (Alcotest.list string_c) "public match only" [ "m1" ] ids;
        (Syscall.my_labels ctx).Flow.secrecy)
  in
  (* the candidate set never touches m2, yet the taint must still
     carry its tag — identical to the scanning path *)
  check bool_c "indexed absorbs skipped row" true
    (Label.mem tag (taint_after true));
  check bool_c "same taint as scan" true
    (Label.equal (taint_after true) (taint_after false))

let test_restricted_tag_denied_identically () =
  let kernel = fresh_store () in
  let locked = Tag.fresh ~name:"idx.locked" ~restricted:true Tag.Secrecy in
  run kernel ~name:"seed" (fun ctx ->
      ok (Obj_store.create_collection ctx "vault" ~labels:Flow.bottom);
      Index.declare ctx ~collection:"vault" ~field:"u" Index.Equality;
      put ctx ~collection:"vault" ~id:"v1" [ ("u", "bob") ];
      put ctx ~collection:"vault" ~id:"v2"
        ~labels:(Flow.make ~secrecy:(Label.singleton locked) ())
        [ ("u", "eve") ]);
  (* without [locked+], both paths deny before reading anything — even
     though the indexed candidate set contains only the public row *)
  run kernel ~name:"snoop" (fun ctx ->
      List.iter
        (fun use_index ->
          match
            Query.select ctx ~use_index ~collection:"vault"
              ~where:(Query.field_equals "u" "bob")
          with
          | Error e when Os_error.is_denied e -> ()
          | Ok _ -> Alcotest.fail "restricted collection served"
          | Error e -> Alcotest.failf "wrong error: %s" (Os_error.to_string e))
        [ true; false ]);
  (* with t+, both succeed and agree *)
  run kernel
    ~caps:(Capability.Set.of_list [ Capability.make locked Capability.Plus ])
    ~name:"reader" (fun ctx ->
      let where = Query.field_equals "u" "bob" in
      check (Alcotest.list string_c) "agree under t+"
        (select_ids ctx ~use_index:false ~collection:"vault" where)
        (select_ids ctx ~use_index:true ~collection:"vault" where))

(* ---- invalidation: writes that bypass Obj_store ---- *)

let test_raw_write_invalidates_index () =
  let kernel = fresh_store () in
  seed_flat kernel ~collection:"live" ~rows:6 ~matches:2;
  let hot ctx =
    select_ids ctx ~use_index:true ~collection:"live"
      (Query.field_equals "u" "hot")
  in
  run kernel ~name:"reader" (fun ctx ->
      check int_c "warm index" 2 (List.length (hot ctx)));
  (* a hostile app rewrites a row straight through Syscall *)
  run kernel ~name:"hostile" (fun ctx ->
      ok
        (Syscall.write_file ctx
           (Obj_store.object_path "live" "r00005")
           ~data:(Record.encode (Record.of_fields [ ("u", "hot") ]))));
  run kernel ~name:"reader2" (fun ctx ->
      (* the dir-version stamp catches the bypassing write: the index
         rebuilds and serves the new truth, never the stale posting *)
      check (Alcotest.list string_c) "sees the raw write"
        [ "r00000"; "r00001"; "r00005" ]
        (hot ctx))

(* An entry is rebuilt from the filesystem once per change to its
   collection, and only then: repeated selects on an unchanged
   collection reuse it, and a put through Obj_store costs exactly one
   more rebuild rather than patching the entry in place. *)
let test_rebuild_once_per_change () =
  let kernel = fresh_store () in
  seed_flat kernel ~collection:"acct" ~rows:8 ~matches:2;
  let rebuilds () = counter kernel "w5_store_index_rebuilds_total" in
  let hot () =
    run kernel ~name:"reader" (fun ctx ->
        select_ids ctx ~use_index:true ~collection:"acct"
          (Query.field_equals "u" "hot"))
  in
  let r0 = rebuilds () in
  ignore (hot ());
  ignore (hot ());
  check int_c "two selects on an unchanged collection" 1 (rebuilds () - r0);
  run kernel ~name:"writer" (fun ctx ->
      put ctx ~collection:"acct" ~id:"r00007" [ ("u", "hot"); ("score", "7") ]);
  check (Alcotest.list string_c) "the select after the put sees it"
    [ "r00000"; "r00001"; "r00007" ]
    (hot ());
  check int_c "a put between selects" 2 (rebuilds () - r0)

let test_stray_directory_forces_fallback () =
  let kernel = fresh_store () in
  seed_flat kernel ~collection:"odd" ~rows:4 ~matches:1;
  run kernel ~name:"mkdir" (fun ctx ->
      ok
        (Syscall.mkdir ctx
           (Obj_store.collection_path "odd" ^ "/subdir")
           ~labels:Flow.bottom));
  run kernel ~name:"querier" (fun ctx ->
      (* a scan aborts on the sub-directory; the index must not paper
         over that, so both paths return the same error *)
      let outcome use_index =
        Query.select ctx ~use_index ~collection:"odd"
          ~where:(Query.field_equals "u" "hot")
      in
      match (outcome true, outcome false) with
      | Error a, Error b ->
          check string_c "same error" (Os_error.to_string b)
            (Os_error.to_string a)
      | Ok _, _ | _, Ok _ -> Alcotest.fail "selected past a stray directory")

(* ---- the equivalence property ----

   Random mutation histories (puts, deletes, raw writes, junk rows,
   secret rows), then random queries: the indexed path must agree with
   the scanning path on results, order, and resulting taint. *)

type op =
  | Put of string * string * bool (* id, value, secret? *)
  | Delete of string
  | Raw_write of string * string (* id, raw bytes *)

let op_gen =
  QCheck.Gen.(
    let id = map (fun i -> "i" ^ string_of_int i) (0 -- 5) in
    frequency
      [
        (6, map2 (fun id v -> Put (id, "v" ^ string_of_int v, false)) id (0 -- 3));
        (2, map2 (fun id v -> Put (id, "v" ^ string_of_int v, true)) id (0 -- 3));
        (2, map (fun id -> Delete id) id);
        (1, map (fun id -> Raw_write (id, "%%%junk%%%")) id);
        (1, map2 (fun id v -> Raw_write (id, Record.encode (Record.of_fields [ ("u", "v" ^ string_of_int v) ]))) id (0 -- 3));
      ])

let arb_history =
  QCheck.make
    QCheck.Gen.(list_size (1 -- 25) op_gen)
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Put (id, v, s) ->
                 Printf.sprintf "put %s=%s%s" id v (if s then " (secret)" else "")
             | Delete id -> "del " ^ id
             | Raw_write (id, data) -> Printf.sprintf "raw %s=%S" id data)
           ops))

let apply_op ctx ~secret = function
  | Put (id, v, is_secret) ->
      put ctx ~collection:"h" ~id
        ~labels:(if is_secret then secret else Flow.bottom)
        [ ("u", v) ]
  | Delete id -> (
      match Obj_store.delete ctx ~collection:"h" ~id with
      | Ok () | Error (Os_error.Not_found _) -> ()
      | Error e -> Alcotest.failf "delete: %s" (Os_error.to_string e))
  | Raw_write (id, data) -> (
      let path = Obj_store.object_path "h" id in
      match Syscall.write_file ctx path ~data with
      | Ok () -> ()
      | Error (Os_error.Not_found _) ->
          ok (Syscall.create_file ctx path ~labels:Flow.bottom ~data)
      | Error e -> Alcotest.failf "raw write: %s" (Os_error.to_string e))

let history_secret () =
  let tag = Tag.fresh ~name:"prop.s" Tag.Secrecy in
  Flow.make ~secrecy:(Label.singleton tag) ()

let create_history_collection ctx =
  ok (Obj_store.create_collection ctx "h" ~labels:Flow.bottom);
  Index.declare ctx ~collection:"h" ~field:"u" Index.Equality

(* Each query runs in a fresh process, so the caller labels compared
   are exactly the taint that one select imposed. *)
let paths_agree kernel =
  let observe use_index where =
    run kernel ~name:"observe" (fun ctx ->
        match Query.select ctx ~use_index ~collection:"h" ~where with
        | Ok rows ->
            Ok
              (List.map (fun (id, r) -> (id, Record.fields r)) rows,
               Syscall.my_labels ctx)
        | Error e -> Error (Os_error.to_string e))
  in
  List.for_all
    (fun where ->
      match (observe true where, observe false where) with
      | Ok (rows_i, labels_i), Ok (rows_s, labels_s) ->
          rows_i = rows_s && Flow.equal_labels labels_i labels_s
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)
    [
      Query.field_equals "u" "v0";
      Query.field_equals "u" "v9";
      Query.(field_equals "u" "v1" &&& has_field "u");
      Query.always;
    ]

let prop_indexed_equals_scan =
  QCheck.Test.make ~name:"indexed select = scanning select" ~count:60
    arb_history (fun ops ->
      let kernel = fresh_store () in
      let secret = history_secret () in
      run kernel ~name:"mutate" (fun ctx ->
          create_history_collection ctx;
          List.iter (apply_op ctx ~secret) ops);
      paths_agree kernel)

(* The same histories, queried after every operation: a select that
   follows a write to the collection must see exactly what a scan
   sees, whatever the index held before the write. *)
let prop_indexed_equals_scan_between_writes =
  QCheck.Test.make ~name:"indexed select = scanning select between writes"
    ~count:300 arb_history (fun ops ->
      let kernel = fresh_store () in
      let secret = history_secret () in
      run kernel ~name:"setup" create_history_collection;
      paths_agree kernel
      && List.for_all
           (fun op ->
             run kernel ~name:"mutate" (fun ctx -> apply_op ctx ~secret op);
             paths_agree kernel)
           ops)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "sanitize injective" `Quick test_sanitize_injective;
    Alcotest.test_case "no aliasing in store" `Quick test_no_aliasing_in_store;
    Alcotest.test_case "field_contains on 1MB value" `Quick
      test_field_contains_large_value;
    Alcotest.test_case "indexed equals scan" `Quick test_indexed_equals_scan;
    Alcotest.test_case "acceptance: 50x fewer reads" `Quick
      test_acceptance_ratio;
    Alcotest.test_case "indexed taint equals scan taint" `Quick
      test_indexed_taint_equals_scan_taint;
    Alcotest.test_case "restricted tag denied identically" `Quick
      test_restricted_tag_denied_identically;
    Alcotest.test_case "raw write invalidates index" `Quick
      test_raw_write_invalidates_index;
    Alcotest.test_case "rebuild once per change" `Quick
      test_rebuild_once_per_change;
    Alcotest.test_case "stray directory forces fallback" `Quick
      test_stray_directory_forces_fallback;
  ]
  @ qsuite
      [
        prop_sanitize_roundtrip;
        prop_indexed_equals_scan;
        prop_indexed_equals_scan_between_writes;
      ]
