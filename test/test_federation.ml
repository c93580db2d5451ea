(* Tests for multi-provider federation (experiment E6): vector clocks,
   conflict merges, and full cross-platform synchronization through
   the user-granted import/export privileges. *)

open W5_store
open W5_platform
open W5_federation

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let ok_s = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let ok_os = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %s" (W5_os.Os_error.to_string e)

(* ---- vector clocks ---- *)

let test_vector_clock_basics () =
  let c = Vector_clock.zero in
  check int_c "zero" 0 (Vector_clock.get c ~node:"a");
  let c = Vector_clock.tick (Vector_clock.tick c ~node:"a") ~node:"a" in
  check int_c "ticked" 2 (Vector_clock.get c ~node:"a");
  let c = Vector_clock.set c ~node:"b" 7 in
  check int_c "set" 7 (Vector_clock.get c ~node:"b")

let test_vector_clock_orderings () =
  let a1 = Vector_clock.tick Vector_clock.zero ~node:"a" in
  let b1 = Vector_clock.tick Vector_clock.zero ~node:"b" in
  let both = Vector_clock.merge a1 b1 in
  check bool_c "equal" true (Vector_clock.compare_clocks a1 a1 = Vector_clock.Equal);
  check bool_c "before" true (Vector_clock.compare_clocks a1 both = Vector_clock.Before);
  check bool_c "after" true (Vector_clock.compare_clocks both b1 = Vector_clock.After);
  check bool_c "concurrent" true
    (Vector_clock.compare_clocks a1 b1 = Vector_clock.Concurrent)

let test_vector_clock_encoding () =
  let c = Vector_clock.set (Vector_clock.set Vector_clock.zero ~node:"b" 2) ~node:"a" 5 in
  check string_c "encode sorted" "a:5,b:2" (Vector_clock.encode c);
  check bool_c "roundtrip" true (Vector_clock.equal c (Vector_clock.decode "a:5,b:2"));
  check bool_c "zero entries dropped" true
    (Vector_clock.equal Vector_clock.zero (Vector_clock.decode "a:0"));
  check bool_c "garbage dropped" true
    (Vector_clock.equal Vector_clock.zero (Vector_clock.decode "nonsense"))

let arb_clock =
  QCheck.make
    ~print:Vector_clock.encode
    QCheck.Gen.(
      map
        (fun entries ->
          List.fold_left
            (fun acc (n, v) ->
              Vector_clock.set acc ~node:("n" ^ string_of_int n) (abs v mod 10))
            Vector_clock.zero entries)
        (list_size (0 -- 5) (pair (0 -- 4) (0 -- 9))))

let prop_merge_commutative =
  QCheck.Test.make ~name:"vc merge commutative" ~count:300
    (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
      Vector_clock.equal (Vector_clock.merge a b) (Vector_clock.merge b a))

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"vc merge dominates both" ~count:300
    (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
      let m = Vector_clock.merge a b in
      let not_after c =
        match Vector_clock.compare_clocks c m with
        | Vector_clock.Before | Vector_clock.Equal -> true
        | Vector_clock.After | Vector_clock.Concurrent -> false
      in
      not_after a && not_after b)

let prop_encode_roundtrip =
  QCheck.Test.make ~name:"vc encode roundtrip" ~count:300 arb_clock (fun c ->
      Vector_clock.equal c (Vector_clock.decode (Vector_clock.encode c)))

(* compare/merge laws: compare_clocks is a partial order whose least
   upper bound is merge *)

let leq a b =
  match Vector_clock.compare_clocks a b with
  | Vector_clock.Before | Vector_clock.Equal -> true
  | Vector_clock.After | Vector_clock.Concurrent -> false

let prop_order_antisymmetric =
  QCheck.Test.make ~name:"vc order antisymmetric" ~count:300
    (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
      (not (leq a b && leq b a)) || Vector_clock.equal a b)

let prop_merge_is_lub =
  QCheck.Test.make ~name:"vc merge is the least upper bound" ~count:300
    (QCheck.triple arb_clock arb_clock arb_clock) (fun (a, b, c) ->
      (* any common upper bound dominates the merge *)
      (not (leq a c && leq b c)) || leq (Vector_clock.merge a b) c)

let prop_vc_merge_idempotent =
  QCheck.Test.make ~name:"vc merge idempotent" ~count:300 arb_clock (fun c ->
      Vector_clock.equal c (Vector_clock.merge c c))

(* ---- conflict merge ---- *)

let test_conflict_merge () =
  let ra = Record.of_fields [ ("name", "alice"); ("friends", "bob,carol") ] in
  let rb = Record.of_fields [ ("name", "alice"); ("friends", "dave"); ("bio", "hi") ] in
  let m = Conflict.merge ra rb in
  check (Alcotest.option string_c) "list union" (Some "bob,carol,dave")
    (Record.get m "friends");
  check (Alcotest.option string_c) "one-sided kept" (Some "hi") (Record.get m "bio");
  check (Alcotest.option string_c) "same value" (Some "alice") (Record.get m "name")

let test_conflict_scalar_deterministic () =
  let ra = Record.of_fields [ ("color", "red") ] in
  let rb = Record.of_fields [ ("color", "blue") ] in
  let m1 = Conflict.merge ra rb and m2 = Conflict.merge rb ra in
  check bool_c "symmetric" true (Record.get m1 "color" = Record.get m2 "color");
  check (Alcotest.option string_c) "lexicographic winner" (Some "red")
    (Record.get m1 "color")

let arb_small_record =
  QCheck.make
    ~print:(fun r -> Format.asprintf "%a" Record.pp r)
    QCheck.Gen.(
      map Record.of_fields
        (list_size (0 -- 5)
           (pair
              (oneofl [ "a"; "b"; "friends"; "x_list" ])
              (string_size (0 -- 5) ~gen:(map Char.chr (97 -- 122))))))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"conflict merge idempotent" ~count:300 arb_small_record
    (fun r ->
      (* merge is set-like on fields: merging r with itself keeps the
         first binding of each key *)
      let m = Conflict.merge r r in
      List.for_all (fun key -> Record.get m key = Record.get r key) (Record.keys r))

(* ---- cross-platform sync ---- *)

let make_side name =
  { Sync.platform = Platform.create (); provider_name = name }

let setup_linked_user () =
  let a = make_side "prov-a" and b = make_side "prov-b" in
  ignore (ok_s (Platform.signup a.Sync.platform ~user:"zoe" ~password:"pw"));
  ignore (ok_s (Platform.signup b.Sync.platform ~user:"zoe" ~password:"pw"));
  let link =
    ok_s (Sync.establish ~a ~b ~user:"zoe" ~files:[ "profile"; "friends" ] ())
  in
  (a, b, link)

let profile_field side field =
  let account = Platform.account_exn side.Sync.platform "zoe" in
  let r, _ = ok_os (Sync.export_record side.Sync.platform account ~file:"profile") in
  Record.get r field

let test_sync_initial_mirror () =
  let a, b, link = setup_linked_user () in
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  (* both replicas already hold a seeded profile, so the first round
     goes through the merge path; pick a value that wins the
     deterministic scalar merge against the seeded "zoe" *)
  ignore
    (ok_os
       (Platform.write_user_record a.Sync.platform account_a ~file:"profile"
          (Record.of_fields [ ("user", "zoe"); ("display", "zoe-prime") ])));
  let stats = ok_s (Sync.sync link) in
  check bool_c "something moved" true (stats.Sync.a_to_b + stats.Sync.merged > 0);
  check (Alcotest.option string_c) "mirrored" (Some "zoe-prime")
    (profile_field b "display");
  check bool_c "converged" true (Sync.converged link)

let test_sync_idempotent_when_converged () =
  let _, _, link = setup_linked_user () in
  ignore (ok_s (Sync.sync link));
  let stats = ok_s (Sync.sync link) in
  check int_c "no copies" 0 (stats.Sync.a_to_b + stats.Sync.b_to_a + stats.Sync.merged)

let test_sync_propagates_updates_both_ways () =
  let a, b, link = setup_linked_user () in
  ignore (ok_s (Sync.sync link));
  let account_b = Platform.account_exn b.Sync.platform "zoe" in
  ignore
    (ok_os
       (Platform.write_user_record b.Sync.platform account_b ~file:"friends"
          (Record.of_fields [ ("friends", "newpal") ])));
  let stats = ok_s (Sync.sync link) in
  check bool_c "b to a" true (stats.Sync.b_to_a >= 1);
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  let r, _ = ok_os (Sync.export_record a.Sync.platform account_a ~file:"friends") in
  check (Alcotest.list string_c) "propagated" [ "newpal" ] (Record.get_list r "friends")

let test_sync_merges_concurrent_edits () =
  let a, b, link = setup_linked_user () in
  ignore (ok_s (Sync.sync link));
  let edit side friends =
    let account = Platform.account_exn side.Sync.platform "zoe" in
    ignore
      (ok_os
         (Platform.write_user_record side.Sync.platform account ~file:"friends"
            (Record.of_fields [ ("friends", friends) ])))
  in
  edit a "ann";
  edit b "ben";
  let stats = ok_s (Sync.sync link) in
  check bool_c "merged" true (stats.Sync.merged >= 1);
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  let r, _ = ok_os (Sync.export_record a.Sync.platform account_a ~file:"friends") in
  let friends = Record.get_list r "friends" in
  check bool_c "union has both" true (List.mem "ann" friends && List.mem "ben" friends);
  check bool_c "replicas equal" true (Sync.converged link)

(* Sync's reads and writes run in platform-side processes; each leaves
   the process table as it ends, with no HTTP request to clean up
   after them. *)
let test_sync_rounds_leave_no_processes () =
  let a, b, link = setup_linked_user () in
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  for round = 1 to 100 do
    ignore
      (ok_os
         (Platform.write_user_record a.Sync.platform account_a ~file:"friends"
            (Record.of_fields [ ("friends", Printf.sprintf "pal%d" round) ])));
    ignore (ok_s (Sync.sync link))
  done;
  check bool_c "converged" true (Sync.converged link);
  let table side =
    List.length (W5_os.Kernel.processes (Platform.kernel side.Sync.platform))
  in
  check int_c "a's table" 0 (table a);
  check int_c "b's table" 0 (table b)

let test_sync_requires_both_accounts () =
  let a = make_side "pa" and b = make_side "pb" in
  ignore (ok_s (Platform.signup a.Sync.platform ~user:"solo" ~password:"pw"));
  match Sync.establish ~a ~b ~user:"solo" ~files:[ "profile" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "linked a missing account"

let test_export_respects_grants () =
  (* Strip the account's own capabilities to model a user who never
     granted the transfer app anything: export must fail, not leak. *)
  let a = make_side "pa" in
  let account = ok_s (Platform.signup a.Sync.platform ~user:"nogrant" ~password:"pw") in
  let saved = account.Account.caps in
  account.Account.caps <- W5_difc.Capability.Set.empty;
  (match Sync.export_record a.Sync.platform account ~file:"profile" with
  | Error e ->
      check bool_c "denied" true (W5_os.Os_error.is_denied e)
  | Ok _ -> Alcotest.fail "export without grant succeeded");
  account.Account.caps <- saved

let test_add_file_and_accessors () =
  let _, _, link = setup_linked_user () in
  check string_c "user" "zoe" (Sync.user link);
  check int_c "two files" 2 (List.length (Sync.files link));
  Sync.add_file link "dating_metric";
  Sync.add_file link "dating_metric";
  check int_c "dedup" 3 (List.length (Sync.files link))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "vector clock basics" `Quick test_vector_clock_basics;
    Alcotest.test_case "vector clock orderings" `Quick
      test_vector_clock_orderings;
    Alcotest.test_case "vector clock encoding" `Quick test_vector_clock_encoding;
    Alcotest.test_case "conflict merge" `Quick test_conflict_merge;
    Alcotest.test_case "conflict scalar deterministic" `Quick
      test_conflict_scalar_deterministic;
    Alcotest.test_case "sync initial mirror" `Quick test_sync_initial_mirror;
    Alcotest.test_case "sync idempotent" `Quick test_sync_idempotent_when_converged;
    Alcotest.test_case "sync propagates both ways" `Quick
      test_sync_propagates_updates_both_ways;
    Alcotest.test_case "sync merges concurrent edits" `Quick
      test_sync_merges_concurrent_edits;
    Alcotest.test_case "sync rounds leave no processes" `Quick
      test_sync_rounds_leave_no_processes;
    Alcotest.test_case "sync requires both accounts" `Quick
      test_sync_requires_both_accounts;
    Alcotest.test_case "export respects grants" `Quick test_export_respects_grants;
    Alcotest.test_case "link accessors" `Quick test_add_file_and_accessors;
  ]
  @ qsuite
      [
        prop_merge_commutative;
        prop_merge_upper_bound;
        prop_order_antisymmetric;
        prop_merge_is_lub;
        prop_vc_merge_idempotent;
        prop_encode_roundtrip;
        prop_merge_idempotent;
      ]

(* ---- provider meshes (Peer) ---- *)

let mesh_with_user n =
  let mesh = Peer.create () in
  List.iter
    (fun i ->
      let name = Printf.sprintf "prov%d" i in
      let platform = Platform.create () in
      ignore (ok_s (Platform.signup platform ~user:"zoe" ~password:"pw"));
      ignore (ok_s (Peer.add_provider mesh ~name platform)))
    (List.init n Fun.id);
  ignore (ok_s (Peer.link_user mesh ~user:"zoe" ~files:[ "profile" ]));
  mesh

let test_peer_mesh_basics () =
  let mesh = Peer.create () in
  let p = Platform.create () in
  ignore (ok_s (Peer.add_provider mesh ~name:"a" p));
  (match Peer.add_provider mesh ~name:"a" (Platform.create ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate provider name");
  check bool_c "lookup" true (Peer.provider mesh ~name:"a" <> None);
  (* linking needs two providers with the account *)
  ignore (ok_s (Platform.signup p ~user:"solo" ~password:"pw"));
  match Peer.link_user mesh ~user:"solo" ~files:[ "profile" ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "linked with a single replica"

let test_peer_mesh_converges () =
  let mesh = mesh_with_user 4 in
  check (Alcotest.list string_c) "linked" [ "zoe" ] (Peer.linked_users mesh);
  (* divergent edits on every provider *)
  List.iteri
    (fun i (_, platform) ->
      let account = Platform.account_exn platform "zoe" in
      ignore
        (ok_os
           (Platform.write_user_record platform account ~file:"profile"
              (Record.of_fields
                 [ ("user", "zoe"); (Printf.sprintf "field%d" i, "x") ]))))
    (Peer.providers mesh);
  let rounds = ok_s (Peer.sync_until_converged mesh ~user:"zoe") in
  check bool_c "few rounds" true (rounds <= 4);
  check bool_c "converged" true (Peer.converged mesh ~user:"zoe");
  (* all four fields survived on every provider *)
  List.iter
    (fun (_, platform) ->
      let account = Platform.account_exn platform "zoe" in
      let r, _ = ok_os (Sync.export_record platform account ~file:"profile") in
      List.iter
        (fun i ->
          check bool_c (Printf.sprintf "field%d present" i) true
            (Record.mem r (Printf.sprintf "field%d" i)))
        [ 0; 1; 2; 3 ])
    (Peer.providers mesh)

let test_peer_gossip_propagates_single_edit () =
  let mesh = mesh_with_user 3 in
  ignore (ok_s (Peer.sync_until_converged mesh ~user:"zoe"));
  let _, first = List.hd (Peer.providers mesh) in
  let account = Platform.account_exn first "zoe" in
  ignore
    (ok_os
       (Platform.write_user_record first account ~file:"profile"
          (Record.of_fields [ ("user", "zoe"); ("motto", "propagate-me") ])));
  ignore (ok_s (Peer.sync_until_converged mesh ~user:"zoe"));
  List.iter
    (fun (name, platform) ->
      let account = Platform.account_exn platform "zoe" in
      let r, _ = ok_os (Sync.export_record platform account ~file:"profile") in
      check (Alcotest.option string_c) (name ^ " has motto") (Some "propagate-me")
        (Record.get r "motto"))
    (Peer.providers mesh)

let suite =
  suite
  @ [
      Alcotest.test_case "peer mesh basics" `Quick test_peer_mesh_basics;
      Alcotest.test_case "peer mesh converges" `Quick test_peer_mesh_converges;
      Alcotest.test_case "peer gossip propagates" `Quick
        test_peer_gossip_propagates_single_edit;
    ]

(* ---- directory mirroring ---- *)

let test_sync_directory () =
  let a, b, link = setup_linked_user () in
  ignore (ok_s (Sync.sync link));
  Sync.add_directory link "photos";
  check (Alcotest.list string_c) "dirs" [ "photos" ] (Sync.directories link);
  (* zoe uploads photos on side A only *)
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  ignore (ok_os (Platform.user_mkdir a.Sync.platform account_a ~dir:"photos"));
  List.iter
    (fun (id, pix) ->
      ignore
        (ok_os
           (Platform.write_user_record a.Sync.platform account_a
              ~file:("photos/" ^ id)
              (Record.of_fields [ ("pixels", pix) ]))))
    [ ("p1", "AAA"); ("p2", "BBB") ];
  let stats = ok_s (Sync.sync link) in
  check bool_c "photos copied" true (stats.Sync.a_to_b >= 2);
  (* both photos exist on side B with the same bytes *)
  let account_b = Platform.account_exn b.Sync.platform "zoe" in
  List.iter
    (fun (id, pix) ->
      let r, _ =
        ok_os (Sync.export_record b.Sync.platform account_b ~file:("photos/" ^ id))
      in
      check (Alcotest.option string_c) (id ^ " mirrored") (Some pix)
        (Record.get r "pixels"))
    [ ("p1", "AAA"); ("p2", "BBB") ];
  check bool_c "converged incl. photos" true (Sync.converged link);
  (* a later upload on side B flows back *)
  ignore
    (ok_os
       (Platform.write_user_record b.Sync.platform account_b
          ~file:"photos/p3"
          (Record.of_fields [ ("pixels", "CCC") ])));
  let stats = ok_s (Sync.sync link) in
  check bool_c "new photo back" true (stats.Sync.b_to_a >= 1);
  let r, _ =
    ok_os (Sync.export_record a.Sync.platform account_a ~file:"photos/p3")
  in
  check (Alcotest.option string_c) "p3 on A" (Some "CCC") (Record.get r "pixels")

let suite =
  suite
  @ [ Alcotest.test_case "sync directory" `Quick test_sync_directory ]

(* ---- whole-account migration (data portability, §1) ---- *)

let seeded_platform_with_zoe () =
  let platform = Platform.create () in
  let account = ok_s (Platform.signup platform ~user:"zoe" ~password:"pw") in
  ignore
    (ok_os
       (Platform.write_user_record platform account ~file:"profile"
          (Record.of_fields [ ("user", "zoe"); ("bio", "sailor") ])));
  ignore (ok_os (Platform.user_mkdir platform account ~dir:"photos"));
  List.iter
    (fun (id, pix) ->
      ignore
        (ok_os
           (Platform.write_user_record platform account
              ~file:("photos/" ^ id)
              (Record.of_fields [ ("pixels", pix) ]))))
    [ ("p1", "AAA"); ("p2", "BBB") ];
  (platform, account)

let test_migrate_account () =
  let old_platform, old_account = seeded_platform_with_zoe () in
  let new_platform = Platform.create () in
  let new_account = ok_s (Platform.signup new_platform ~user:"zoe" ~password:"pw2") in
  let moved =
    ok_os
      (Migrate.migrate_account ~from_platform:old_platform
         ~from_account:old_account ~to_platform:new_platform
         ~to_account:new_account ())
  in
  (* profile + friends (seeded) + 2 photos *)
  check bool_c "several files moved" true (moved >= 4);
  (* the data is there, under the NEW account's labels *)
  let r = ok_os (Platform.read_user_record new_platform new_account ~file:"profile") in
  check (Alcotest.option string_c) "bio" (Some "sailor") (Record.get r "bio");
  let r =
    ok_os (Platform.read_user_record new_platform new_account ~file:"photos/p2")
  in
  check (Alcotest.option string_c) "photo" (Some "BBB") (Record.get r "pixels");
  (* labels on the new platform belong to the new account *)
  let labels =
    ok_os
      (Platform.with_ctx new_platform ~name:"peek" (fun ctx ->
           W5_os.Syscall.stat ctx "/users/zoe/photos/p2"))
  in
  check bool_c "new tag" true
    (W5_difc.Label.mem new_account.Account.secret_tag
       labels.W5_os.Fs.labels.W5_difc.Flow.secrecy);
  check bool_c "old tag absent" false
    (W5_difc.Label.mem old_account.Account.secret_tag
       labels.W5_os.Fs.labels.W5_difc.Flow.secrecy)

let test_export_requires_grants () =
  let platform, account = seeded_platform_with_zoe () in
  let saved = account.Account.caps in
  account.Account.caps <- W5_difc.Capability.Set.empty;
  (match Migrate.export_bundle platform account with
  | Error e -> check bool_c "denied" true (W5_os.Os_error.is_denied e)
  | Ok _ -> Alcotest.fail "exported without grants");
  account.Account.caps <- saved

let test_bundle_encoding () =
  let platform, account = seeded_platform_with_zoe () in
  let bundle = ok_os (Migrate.export_bundle platform account) in
  check bool_c "deterministic order" true
    (let paths = List.map (fun e -> e.Migrate.rel_path) bundle in
     paths = List.sort String.compare paths);
  match Migrate.decode_bundle (Migrate.encode_bundle bundle) with
  | Ok decoded -> check bool_c "roundtrip" true (decoded = bundle)
  | Error e -> Alcotest.failf "decode: %s" e

let suite =
  suite
  @ [
      Alcotest.test_case "migrate account" `Quick test_migrate_account;
      Alcotest.test_case "export requires grants" `Quick test_export_requires_grants;
      Alcotest.test_case "bundle encoding" `Quick test_bundle_encoding;
    ]

(* ---- conflict field heuristics ---- *)

let test_is_list_field () =
  check bool_c "friends" true (Conflict.is_list_field "friends");
  check bool_c "entries" true (Conflict.is_list_field "entries");
  check bool_c "suffix" true (Conflict.is_list_field "tags_list");
  check bool_c "plain" false (Conflict.is_list_field "name");
  check bool_c "empty" false (Conflict.is_list_field "")

let test_merge_values_directly () =
  check string_c "same" "x" (Conflict.merge_values ~key:"k" "x" "x");
  check string_c "lexicographic" "zebra" (Conflict.merge_values ~key:"k" "apple" "zebra");
  check string_c "list union" "a,b,c" (Conflict.merge_values ~key:"friends" "a,b" "b,c");
  check string_c "empty list side" "a" (Conflict.merge_values ~key:"friends" "a" "")

let suite =
  suite
  @ [
      Alcotest.test_case "is_list_field" `Quick test_is_list_field;
      Alcotest.test_case "merge_values" `Quick test_merge_values_directly;
    ]

(* ---- takeout over HTTP ---- *)

let test_takeout_app () =
  let platform, account = seeded_platform_with_zoe () in
  ignore account;
  let dev = W5_difc.Principal.make W5_difc.Principal.Developer "provider" in
  ignore (ok_s (Migrate.publish_takeout_app platform ~dev));
  ignore (ok_s (Platform.enable_app platform ~user:"zoe" ~app:"provider/takeout"));
  let zoe = W5_http.Client.make ~name:"zoe" (Gateway.handler platform) in
  ignore
    (W5_http.Client.post zoe "/login" ~form:[ ("user", "zoe"); ("pass", "pw") ]);
  let r = W5_http.Client.get zoe "/app/provider/takeout" in
  check int_c "bundle served to owner" 200
    (W5_http.Response.status_code r.W5_http.Response.status);
  (* the body round-trips as a bundle containing her photos *)
  (match Migrate.decode_bundle r.W5_http.Response.body with
  | Ok bundle ->
      check bool_c "photos in bundle" true
        (List.exists (fun e -> e.Migrate.rel_path = "photos/p1") bundle)
  | Error e -> Alcotest.failf "decode: %s" e);
  (* another user cannot pull zoe's bundle: the app exports the
     *viewer's* data, so mallory just gets mallory's *)
  ignore (ok_s (Platform.signup platform ~user:"mallory" ~password:"pw"));
  ignore (ok_s (Platform.enable_app platform ~user:"mallory" ~app:"provider/takeout"));
  let mallory = W5_http.Client.make ~name:"mallory" (Gateway.handler platform) in
  ignore
    (W5_http.Client.post mallory "/login" ~form:[ ("user", "mallory"); ("pass", "pw") ]);
  let r = W5_http.Client.get mallory "/app/provider/takeout" in
  check int_c "mallory gets own bundle" 200
    (W5_http.Response.status_code r.W5_http.Response.status);
  check bool_c "no zoe data inside" false
    (W5_http.Client.saw mallory "sailor")

let suite =
  suite @ [ Alcotest.test_case "takeout app" `Quick test_takeout_app ]

(* ---- sync of a read-protected account ---- *)

let test_sync_read_protected_account () =
  let a = make_side "rp-a" and b = make_side "rp-b" in
  let account_a = ok_s (Platform.signup a.Sync.platform ~user:"zoe" ~password:"pw") in
  ignore (ok_s (Platform.signup b.Sync.platform ~user:"zoe" ~password:"pw"));
  ignore (Platform.enable_read_protection a.Sync.platform account_a);
  ignore
    (ok_os
       (Platform.write_user_record a.Sync.platform account_a ~file:"profile"
          (Record.of_fields [ ("user", "zoe"); ("locked", "yes") ])));
  let link = ok_s (Sync.establish ~a ~b ~user:"zoe" ~files:[ "profile" ] ()) in
  ignore (ok_s (Sync.sync link));
  let account_b = Platform.account_exn b.Sync.platform "zoe" in
  let r, _ = ok_os (Sync.export_record b.Sync.platform account_b ~file:"profile") in
  check (Alcotest.option string_c) "mirrored through the restricted tag"
    (Some "yes") (Record.get r "locked")

let suite =
  suite
  @ [
      Alcotest.test_case "sync read-protected account" `Quick
        test_sync_read_protected_account;
    ]

(* ---- deletion propagation ---- *)

let test_sync_propagates_deletion () =
  let a, b, link = setup_linked_user () in
  Sync.add_directory link "photos";
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  let account_b = Platform.account_exn b.Sync.platform "zoe" in
  ignore (ok_os (Platform.user_mkdir a.Sync.platform account_a ~dir:"photos"));
  ignore
    (ok_os
       (Platform.write_user_record a.Sync.platform account_a
          ~file:"photos/doomed"
          (Record.of_fields [ ("pixels", "X") ])));
  ignore (ok_s (Sync.sync link));
  (* the photo is on both sides *)
  ignore (ok_os (Sync.export_record b.Sync.platform account_b ~file:"photos/doomed"));
  (* zoe deletes it on A; the deletion propagates instead of the file
     being resurrected from B *)
  ignore (ok_os (Platform.delete_user_file a.Sync.platform account_a ~file:"photos/doomed"));
  let stats = ok_s (Sync.sync link) in
  check bool_c "deletion moved" true (stats.Sync.a_to_b >= 1);
  (match Sync.export_record b.Sync.platform account_b ~file:"photos/doomed" with
  | Error (W5_os.Os_error.Not_found _) -> ()
  | Ok _ -> Alcotest.fail "file resurrected on B"
  | Error e -> Alcotest.failf "wrong error: %s" (W5_os.Os_error.to_string e));
  (* a later round does not resurrect it on A either *)
  ignore (ok_s (Sync.sync link));
  match Sync.export_record a.Sync.platform account_a ~file:"photos/doomed" with
  | Error (W5_os.Os_error.Not_found _) -> ()
  | Ok _ -> Alcotest.fail "file resurrected on A"
  | Error e -> Alcotest.failf "wrong error: %s" (W5_os.Os_error.to_string e)

let test_delete_vs_edit_conflict () =
  let a, b, link = setup_linked_user () in
  Sync.add_directory link "photos";
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  let account_b = Platform.account_exn b.Sync.platform "zoe" in
  ignore (ok_os (Platform.user_mkdir a.Sync.platform account_a ~dir:"photos"));
  ignore
    (ok_os
       (Platform.write_user_record a.Sync.platform account_a ~file:"photos/p"
          (Record.of_fields [ ("pixels", "v1") ])));
  ignore (ok_s (Sync.sync link));
  (* concurrently: A deletes, B edits *)
  ignore (ok_os (Platform.delete_user_file a.Sync.platform account_a ~file:"photos/p"));
  ignore
    (ok_os
       (Platform.write_user_record b.Sync.platform account_b ~file:"photos/p"
          (Record.of_fields [ ("pixels", "v2-edited") ])));
  ignore (ok_s (Sync.sync link));
  (* the edit wins: the file is back on A with B's content *)
  let r, _ = ok_os (Sync.export_record a.Sync.platform account_a ~file:"photos/p") in
  check (Alcotest.option string_c) "edit wins" (Some "v2-edited")
    (Record.get r "pixels")

(* A photo that the last round left on both sides of a fresh link. *)
let synced_photo () =
  let a, b, link = setup_linked_user () in
  Sync.add_directory link "photos";
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  ignore (ok_os (Platform.user_mkdir a.Sync.platform account_a ~dir:"photos"));
  ignore
    (ok_os
       (Platform.write_user_record a.Sync.platform account_a ~file:"photos/p"
          (Record.of_fields [ ("pixels", "v1") ])));
  ignore (ok_s (Sync.sync link));
  ignore
    (ok_os
       (Sync.export_record b.Sync.platform
          (Platform.account_exn b.Sync.platform "zoe")
          ~file:"photos/p"));
  (a, b, link)

let delete side ~file =
  let account = Platform.account_exn side.Sync.platform "zoe" in
  ignore (ok_os (Platform.delete_user_file side.Sync.platform account ~file))

let photo_gone side =
  let account = Platform.account_exn side.Sync.platform "zoe" in
  match Sync.export_record side.Sync.platform account ~file:"photos/p" with
  | Error (W5_os.Os_error.Not_found _) -> true
  | Ok _ -> false
  | Error e -> Alcotest.failf "wrong error: %s" (W5_os.Os_error.to_string e)

let test_delete_on_b_reaches_a () =
  let a, b, link = synced_photo () in
  delete b ~file:"photos/p";
  let stats = ok_s (Sync.sync link) in
  check int_c "deletion moved b to a" 1 stats.Sync.b_to_a;
  check bool_c "gone on A" true (photo_gone a);
  check bool_c "still gone on B" true (photo_gone b);
  check bool_c "converged" true (Sync.converged link)

let test_edit_on_a_beats_delete_on_b () =
  let a, b, link = synced_photo () in
  delete b ~file:"photos/p";
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  ignore
    (ok_os
       (Platform.write_user_record a.Sync.platform account_a ~file:"photos/p"
          (Record.of_fields [ ("pixels", "v2-edited") ])));
  let stats = ok_s (Sync.sync link) in
  check int_c "the edit moved a to b" 1 stats.Sync.a_to_b;
  let account_b = Platform.account_exn b.Sync.platform "zoe" in
  let r, _ = ok_os (Sync.export_record b.Sync.platform account_b ~file:"photos/p") in
  check (Alcotest.option string_c) "edit is back on B" (Some "v2-edited")
    (Record.get r "pixels")

let test_both_sides_delete () =
  let a = make_side "pa" and b = make_side "pb" in
  ignore (ok_s (Platform.signup a.Sync.platform ~user:"zoe" ~password:"pw"));
  ignore (ok_s (Platform.signup b.Sync.platform ~user:"zoe" ~password:"pw"));
  let link = ok_s (Sync.establish ~a ~b ~user:"zoe" ~files:[ "notes" ] ()) in
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  ignore
    (ok_os
       (Platform.write_user_record a.Sync.platform account_a ~file:"notes"
          (Record.of_fields [ ("text", "draft") ])));
  check int_c "copied" 1 (ok_s (Sync.sync link)).Sync.a_to_b;
  delete a ~file:"notes";
  delete b ~file:"notes";
  let stats = ok_s (Sync.sync link) in
  check int_c "unchanged" 1 stats.Sync.unchanged;
  check int_c "nothing moved" 0
    (stats.Sync.a_to_b + stats.Sync.b_to_a + stats.Sync.merged);
  check bool_c "converged" true (Sync.converged link)

(* regression: a file listed in sync_files that also appears under an
   add_directory expansion used to be worked twice per round, double
   counting it in the stats (copy + spurious unchanged) *)
let test_file_in_files_and_dir_counted_once () =
  let a = make_side "pa" and b = make_side "pb" in
  ignore (ok_s (Platform.signup a.Sync.platform ~user:"zoe" ~password:"pw"));
  ignore (ok_s (Platform.signup b.Sync.platform ~user:"zoe" ~password:"pw"));
  let link = ok_s (Sync.establish ~a ~b ~user:"zoe" ~files:[ "photos/p1" ] ()) in
  Sync.add_directory link "photos";
  let account_a = Platform.account_exn a.Sync.platform "zoe" in
  ignore (ok_os (Platform.user_mkdir a.Sync.platform account_a ~dir:"photos"));
  List.iter
    (fun (file, pixels) ->
      ignore
        (ok_os
           (Platform.write_user_record a.Sync.platform account_a ~file
              (Record.of_fields [ ("pixels", pixels) ]))))
    [ ("photos/p1", "one"); ("photos/p2", "two") ];
  let stats = ok_s (Sync.sync link) in
  check int_c "each file copied once" 2 stats.Sync.a_to_b;
  check int_c "no spurious unchanged for the dup" 0 stats.Sync.unchanged;
  check int_c "worklist size = distinct files" 2
    (stats.Sync.a_to_b + stats.Sync.b_to_a + stats.Sync.merged
   + stats.Sync.unchanged + stats.Sync.timed_out)

let suite =
  suite
  @ [
      Alcotest.test_case "sync propagates deletion" `Quick
        test_sync_propagates_deletion;
      Alcotest.test_case "delete vs edit conflict" `Quick
        test_delete_vs_edit_conflict;
      Alcotest.test_case "file in files+dir worked once" `Quick
        test_file_in_files_and_dir_counted_once;
      Alcotest.test_case "delete on B reaches A" `Quick
        test_delete_on_b_reaches_a;
      Alcotest.test_case "edit on A beats delete on B" `Quick
        test_edit_on_a_beats_delete_on_b;
      Alcotest.test_case "both sides delete" `Quick test_both_sides_delete;
    ]

let test_peer_errors () =
  let mesh = Peer.create () in
  (match Peer.sync_round mesh ~user:"nobody" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "synced an unlinked user");
  check bool_c "unlinked not converged" false (Peer.converged mesh ~user:"nobody");
  check (Alcotest.list string_c) "no linked users" [] (Peer.linked_users mesh)

let test_vector_clock_pp () =
  let c = Vector_clock.set Vector_clock.zero ~node:"n" 3 in
  check string_c "pp = encode" (Vector_clock.encode c)
    (Format.asprintf "%a" Vector_clock.pp c)

let suite =
  suite
  @ [
      Alcotest.test_case "peer errors" `Quick test_peer_errors;
      Alcotest.test_case "vector clock pp" `Quick test_vector_clock_pp;
    ]

let test_import_idempotent_overwrite () =
  let old_platform, old_account = seeded_platform_with_zoe () in
  let new_platform = Platform.create () in
  let new_account = ok_s (Platform.signup new_platform ~user:"zoe" ~password:"pw") in
  let bundle = ok_os (Migrate.export_bundle old_platform old_account) in
  let first = ok_os (Migrate.import_bundle new_platform new_account bundle) in
  let second = ok_os (Migrate.import_bundle new_platform new_account bundle) in
  check int_c "same count both times" first second;
  (* content unchanged after the second import *)
  let r = ok_os (Platform.read_user_record new_platform new_account ~file:"profile") in
  check (Alcotest.option string_c) "bio intact" (Some "sailor") (Record.get r "bio")

let suite =
  suite
  @ [
      Alcotest.test_case "import idempotent overwrite" `Quick
        test_import_idempotent_overwrite;
    ]

(* ---- convergence under random edit/sync interleavings ---- *)

let prop_sync_always_converges =
  let arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ""
          (List.map (function 0 -> "A" | 1 -> "B" | _ -> "S") ops))
      QCheck.Gen.(list_size (1 -- 12) (0 -- 2))
  in
  QCheck.Test.make ~name:"random edit/sync interleavings converge" ~count:60
    arb (fun ops ->
      let a = make_side "qa" and b = make_side "qb" in
      let ok' = function Ok v -> v | Error e -> failwith e in
      ignore (ok' (Platform.signup a.Sync.platform ~user:"zoe" ~password:"pw"));
      ignore (ok' (Platform.signup b.Sync.platform ~user:"zoe" ~password:"pw"));
      let link = ok' (Sync.establish ~a ~b ~user:"zoe" ~files:[ "profile" ] ()) in
      let counter = ref 0 in
      let edit side tag =
        incr counter;
        let account = Platform.account_exn side.Sync.platform "zoe" in
        match
          Platform.write_user_record side.Sync.platform account ~file:"profile"
            (Record.of_fields
               [ ("user", "zoe"); ("rev-" ^ tag, string_of_int !counter) ])
        with
        | Ok () -> ()
        | Error e -> failwith (W5_os.Os_error.to_string e)
      in
      List.iter
        (fun op ->
          match op with
          | 0 -> edit a "a"
          | 1 -> edit b "b"
          | _ -> ignore (Sync.sync link))
        ops;
      (* quiesce: two rounds settle any in-flight merge *)
      ignore (Sync.sync link);
      ignore (Sync.sync link);
      Sync.converged link
      &&
      (* and a further round moves nothing *)
      match Sync.sync link with
      | Ok stats ->
          stats.Sync.a_to_b = 0 && stats.Sync.b_to_a = 0 && stats.Sync.merged = 0
      | Error _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_sync_always_converges ]

let test_migrate_read_protected_account () =
  let old_platform = Platform.create () in
  let old_account =
    ok_s (Platform.signup old_platform ~user:"zoe" ~password:"pw")
  in
  ignore (Platform.enable_read_protection old_platform old_account);
  ignore
    (ok_os
       (Platform.write_user_record old_platform old_account ~file:"profile"
          (Record.of_fields [ ("user", "zoe"); ("vault", "LOCKED-DATA") ])));
  let new_platform = Platform.create () in
  let new_account = ok_s (Platform.signup new_platform ~user:"zoe" ~password:"pw") in
  let moved =
    ok_os
      (Migrate.migrate_account ~from_platform:old_platform
         ~from_account:old_account ~to_platform:new_platform
         ~to_account:new_account ())
  in
  check bool_c "moved" true (moved >= 2);
  let r = ok_os (Platform.read_user_record new_platform new_account ~file:"profile") in
  check (Alcotest.option string_c) "protected data moved" (Some "LOCKED-DATA")
    (Record.get r "vault")

let suite =
  suite
  @ [
      Alcotest.test_case "migrate read-protected account" `Quick
        test_migrate_read_protected_account;
    ]
