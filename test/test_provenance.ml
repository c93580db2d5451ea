(* Tests for flow provenance and denial explanation: the graph module
   itself (interning, budgets, causal walks), the audit query helper,
   and the end-to-end story — a scripted breach whose denial `explain`
   must narrate, plus a QCheck property that `provenance` never
   reports a tag the file no longer carries. *)

open W5_difc
open W5_platform

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let contains = W5_http.Substring.contains

let ok_os = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %s" (W5_os.Os_error.to_string e)

let signup platform user =
  match Platform.signup platform ~user ~password:(user ^ "-pw") with
  | Ok a -> a
  | Error e -> Alcotest.failf "signup %s: %s" user e

(* ---- the graph module on hand-built edges ---- *)

let edge ?(kind = "k") ?(tags = []) ?denied ~seq src dst =
  { W5_obs.Provenance.kind; src; dst; seq; tick = seq; tags; denied;
    detail = None }

let seqs_of chain =
  List.map (fun e -> e.W5_obs.Provenance.seq) chain

let test_causal_chain () =
  let open W5_obs in
  let g = Provenance.create () in
  let o = Provenance.Object "/o" in
  let p1 = Provenance.Process 1 and p2 = Provenance.Process 2 in
  let r = Provenance.Remote "out" in
  Provenance.add_edge g (edge ~seq:1 ~tags:[ "t" ] o p1);
  Provenance.add_edge g (edge ~seq:2 ~tags:[ "t" ] p1 p2);
  (* a different tag flowing into p2 must not enter a t-filtered chain *)
  Provenance.add_edge g (edge ~seq:3 ~tags:[ "u" ] o p2);
  let denial = edge ~seq:4 ~tags:[ "t" ] ~denied:"no" p2 r in
  Provenance.add_edge g denial;
  (* causes must precede effects: this later arrival is not a cause *)
  Provenance.add_edge g (edge ~seq:5 ~tags:[ "t" ] o p2);
  check (Alcotest.list int_c) "chain is the tagged history, oldest first"
    [ 1; 2; 4 ]
    (seqs_of (Provenance.explain g denial));
  check (Alcotest.list int_c) "untagged walk sees every inbound edge"
    [ 1; 2; 3 ]
    (seqs_of (Provenance.causes g ~before:4 p2));
  check (Alcotest.list int_c) "tag_history covers arrival and upstream"
    [ 1; 2; 5 ]
    (seqs_of (Provenance.tag_history g p2 ~tag:"t"));
  match Provenance.find_edge g ~seq:4 with
  | Some e -> check int_c "find_edge by seq" 4 e.Provenance.seq
  | None -> Alcotest.fail "denial edge lost"

let test_node_budget_truncation () =
  let open W5_obs in
  let g = Provenance.create ~node_budget:2 () in
  let a = Provenance.Process 1 and b = Provenance.Process 2 in
  let c = Provenance.Object "/c" in
  Provenance.add_edge g (edge ~seq:1 a b);
  check bool_c "within budget" false (Provenance.truncated g);
  Provenance.add_edge g (edge ~seq:2 b c);
  check bool_c "third node trips the budget" true (Provenance.truncated g);
  check int_c "node count stays capped" 2 (Provenance.node_count g);
  check int_c "edge to the dropped node not recorded" 1
    (Provenance.edge_count g);
  (* edges between already-interned nodes still land *)
  Provenance.add_edge g (edge ~seq:3 b a);
  check int_c "known-node edge accepted" 2 (Provenance.edge_count g);
  check bool_c "text rendering warns" true
    (contains
       (Provenance.render_chain g [ edge ~seq:1 a b ])
       "truncated at node budget 2");
  check bool_c "dot rendering warns" true
    (contains (Provenance.to_dot g) "_truncated")

(* ---- Audit.query ---- *)

let test_audit_query () =
  let open W5_os in
  let tag = Tag.fresh ~name:"q.t" Tag.Secrecy in
  let l = Label.singleton tag in
  let tainted = Flow.make ~secrecy:l () in
  let log = Audit.create () in
  Audit.record log ~tick:1 ~pid:1 (Audit.App_note "a");
  Audit.record log ~tick:2 ~pid:2
    (Audit.Flow_checked
       {
         op = "fs.read";
         src = tainted;
         dst = Flow.bottom;
         decision = Error (Flow.Secrecy_violation l);
         subject = Audit.File "/x";
       });
  Audit.record log ~tick:3 ~pid:1 (Audit.Declassified { tag; context = "g" });
  Audit.record log ~tick:4 ~pid:2 (Audit.App_note "b");
  let seqs q = List.map (fun e -> e.Audit.seq) q in
  check (Alcotest.list int_c) "no filters = everything" [ 1; 2; 3; 4 ]
    (seqs (Audit.query log ()));
  check (Alcotest.list int_c) "by pid" [ 1; 3 ] (seqs (Audit.query log ~pid:1 ()));
  check (Alcotest.list int_c) "by kind" [ 3 ]
    (seqs (Audit.query log ~kind:"declassified" ()));
  check (Alcotest.list int_c) "seq range is inclusive" [ 2; 3 ]
    (seqs (Audit.query log ~seq_from:2 ~seq_to:3 ()));
  check (Alcotest.list int_c) "denials only" [ 2 ]
    (seqs (Audit.query log ~denials_only:true ()));
  check (Alcotest.list int_c) "filters conjoin" []
    (seqs (Audit.query log ~pid:1 ~denials_only:true ()));
  check (Alcotest.list int_c) "kind + range" [ 4 ]
    (seqs (Audit.query log ~kind:"app_note" ~seq_from:2 ()))

let test_audit_query_after_eviction () =
  let open W5_os in
  let log = Audit.create ~capacity:4 () in
  for i = 1 to 12 do
    Audit.record log ~tick:i ~pid:1 (Audit.App_note "n")
  done;
  check bool_c "something evicted" true (Audit.evicted log > 0);
  (match Audit.entries log with
  | first :: _ ->
      check int_c "evicted counts the missing prefix"
        (first.Audit.seq - 1) (Audit.evicted log)
  | [] -> Alcotest.fail "log empty");
  (* a range entirely inside the evicted prefix silently yields nothing *)
  check int_c "evicted range is empty" 0
    (List.length (Audit.query log ~seq_from:1 ~seq_to:2 ()))

(* ---- the scripted breach, end to end ---- *)

(* alice's profile is secret; bob is her friend and a friends-only
   declassifier exists; a thief process reads the profile with taint.
   Exporting the loot to bob succeeds through the gate; exporting it
   to an anonymous client is refused — and that refusal is the denial
   `w5 explain` must be able to narrate. *)
let breach () =
  let platform = Platform.create () in
  let alice = signup platform "alice" in
  let bob = signup platform "bob" in
  ignore (signup platform "mallory");
  ok_os
    (Platform.write_user_record platform alice ~file:"friends"
       (W5_store.Record.set_list W5_store.Record.empty "friends" [ "bob" ]));
  ignore
    (Declassifier.install_and_authorize platform ~account:alice
       ~name:"friends" Declassifier.friends_only);
  let pid, labels, data =
    ok_os
      (Platform.with_ctx platform ~name:"mal/thief" (fun ctx ->
           match
             W5_os.Syscall.read_file_taint ctx
               (Platform.user_file "alice" "profile")
           with
           | Error _ as e -> e
           | Ok data ->
               Ok (W5_os.Syscall.pid ctx, W5_os.Syscall.my_labels ctx, data)))
  in
  check bool_c "the thief is carrying alice's tag" true
    (Label.mem alice.Account.secret_tag labels.Flow.secrecy);
  (match Perimeter.export platform ~source:pid ~viewer:(Some bob) ~data ~labels () with
  | Ok _ -> ()
  | Error r ->
      Alcotest.failf "friend export refused: %s" (Perimeter.refusal_to_string r));
  (match Perimeter.export platform ~source:pid ~viewer:None ~data ~labels () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "anonymous export was allowed");
  (platform, alice, pid)

let test_explain_denial () =
  let platform, alice, pid = breach () in
  let log = W5_os.Kernel.audit (Platform.kernel platform) in
  let g = W5_os.Explain.graph log in
  let entry =
    match W5_os.Explain.find_denial log () with
    | Some e -> e
    | None -> Alcotest.fail "no denial recorded"
  in
  check string_c "the denial is the export"
    "export_attempted" (W5_os.Audit.event_kind entry.W5_os.Audit.event);
  check int_c "attributed to the thief" pid entry.W5_os.Audit.pid;
  (* lookup by explicit seq agrees; a non-denial seq is rejected *)
  (match W5_os.Explain.find_denial log ~seq:entry.W5_os.Audit.seq () with
  | Some e -> check int_c "seq lookup" entry.W5_os.Audit.seq e.W5_os.Audit.seq
  | None -> Alcotest.fail "seq lookup failed");
  check bool_c "seq 1 is not a denial" true
    (W5_os.Explain.find_denial log ~seq:1 () = None);
  let text =
    match W5_os.Explain.explain_text g entry with
    | Ok s -> s
    | Error e -> Alcotest.failf "explain failed: %s" e
  in
  let tag = Tag.name alice.Account.secret_tag in
  List.iter
    (fun (what, needle) ->
      check bool_c ("chain cites " ^ what) true (contains text needle))
    [
      ("the labeling of the profile", "fs.create");
      ("the tainting read", "fs.read_taint");
      ("the profile path", "/users/alice/profile");
      ("the stolen tag", tag);
      ("the thief by name", Printf.sprintf "pid %d (mal/thief)" pid);
      ("the destination", "anonymous client");
      ("the verdict", "DENIED");
      ("the denial's own seq", Printf.sprintf "#%d" entry.W5_os.Audit.seq);
    ];
  (* the chain itself: ascending seqs, ending at the denial *)
  (match W5_os.Explain.explain g entry with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok chain ->
      let seqs = seqs_of chain in
      check bool_c "chain non-trivial" true (List.length seqs >= 3);
      check int_c "chain ends at the denial" entry.W5_os.Audit.seq
        (List.nth seqs (List.length seqs - 1));
      check bool_c "seqs ascend" true
        (List.sort compare seqs = seqs));
  (* and the DOT rendering of the same chain *)
  let dot =
    match W5_os.Explain.explain_dot g entry with
    | Ok s -> s
    | Error e -> Alcotest.failf "explain dot failed: %s" e
  in
  List.iter
    (fun (what, needle) ->
      check bool_c ("dot has " ^ what) true (contains dot needle))
    [
      ("the digraph header", "digraph provenance");
      ("the remote sink node", "r_anonymous_client");
      ("the denied edge in red", "color=red");
      ("the denial edge label", Printf.sprintf "#%d export" entry.W5_os.Audit.seq);
    ]

let test_audit_report () =
  let platform, alice, _pid = breach () in
  let log = W5_os.Kernel.audit (Platform.kernel platform) in
  let report = W5_os.Explain.report log in
  List.iter
    (fun (what, needle) ->
      check bool_c ("report has " ^ what) true (contains report needle))
    [
      ("the header", "W5 audit report");
      ("the declassifier rollup", "declassifications");
      ("alice's gate by name", "declass/alice/friends");
      ("the cleared tag", Tag.name alice.Account.secret_tag);
      ("the denial reason", "secrecy_violation");
      ("the denial op", "export");
      ("the thief under denials-by-process", "mal/thief");
      ("the refused destination", "anonymous client");
      ("the deny verdict", "deny");
      ("the allowed destination", "bob's browser");
      ("the allow verdict", "allow");
      ("the tainting path", "/users/alice/profile");
    ]

let test_file_provenance_reports_arrival () =
  let platform, alice, _pid = breach () in
  let g = W5_os.Explain.graph (W5_os.Kernel.audit (Platform.kernel platform)) in
  let per_tag =
    W5_os.Explain.file_provenance g
      ~path:(Platform.user_file "alice" "profile")
  in
  let tag = Tag.name alice.Account.secret_tag in
  match List.assoc_opt tag per_tag with
  | None -> Alcotest.failf "tag %s missing from file provenance" tag
  | Some history ->
      check bool_c "history includes the labeling" true
        (List.exists
           (fun e -> e.W5_obs.Provenance.kind = "fs.create")
           history)

(* ---- property: provenance never overstates a file's current label ---- *)

(* Random interleavings of provider-side writes (create files with the
   owner's labels), read-protection upgrades (relabel everything the
   user owns) and deletions. Whatever happened, every tag `provenance`
   reports for a surviving file must be on that file's actual label —
   superseded labelings may not resurface. *)
let prop_file_provenance_sound =
  let users = [ "ua"; "ub"; "uc" ] in
  let files = [ "profile"; "friends"; "notes" ] in
  let arb =
    QCheck.make
      ~print:QCheck.Print.(list (pair int int))
      QCheck.Gen.(list_size (1 -- 12) (pair (0 -- 2) (0 -- 3)))
  in
  QCheck.Test.make
    ~name:"file provenance tags are a subset of the file's label" ~count:40
    arb
    (fun ops ->
      let platform = Platform.create () in
      let accounts = List.map (signup platform) users in
      List.iter
        (fun (ui, op) ->
          let account = List.nth accounts (ui mod List.length accounts) in
          match op with
          | 0 | 1 ->
              ignore
                (Platform.write_user_record platform account
                   ~file:(if op = 0 then "profile" else "notes")
                   (W5_store.Record.of_fields [ ("k", "v") ]))
          | 2 -> ignore (Platform.enable_read_protection platform account)
          | _ -> ignore (Platform.delete_user_file platform account ~file:"notes"))
        ops;
      let g =
        W5_os.Explain.graph (W5_os.Kernel.audit (Platform.kernel platform))
      in
      List.for_all
        (fun user ->
          List.for_all
            (fun file ->
              let path = Platform.user_file user file in
              match
                Platform.with_ctx platform ~name:"stat" (fun ctx ->
                    W5_os.Syscall.stat ctx path)
              with
              | Error _ -> true (* deleted: nothing to compare against *)
              | Ok st ->
                  let current =
                    List.map Tag.name
                      (Label.to_list st.W5_os.Fs.labels.Flow.secrecy)
                  in
                  List.for_all
                    (fun (tag, _) -> List.mem tag current)
                    (W5_os.Explain.file_provenance g ~path))
            files)
        users)

let suite =
  [
    Alcotest.test_case "causal chain walk" `Quick test_causal_chain;
    Alcotest.test_case "node budget truncation" `Quick
      test_node_budget_truncation;
    Alcotest.test_case "audit query filters" `Quick test_audit_query;
    Alcotest.test_case "audit query after eviction" `Quick
      test_audit_query_after_eviction;
    Alcotest.test_case "explain narrates the breach" `Quick test_explain_denial;
    Alcotest.test_case "audit report rollups" `Quick test_audit_report;
    Alcotest.test_case "file provenance sees the labeling" `Quick
      test_file_provenance_reports_arrival;
    QCheck_alcotest.to_alcotest prop_file_provenance_sound;
  ]
