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

(* ---- the slice on a hand-built log ---- *)

let seqs_of chain = List.map (fun e -> e.W5_os.Explain.seq) chain

let test_causal_chain () =
  let open W5_os in
  let t = Tag.fresh ~name:"t" Tag.Secrecy in
  let u = Tag.fresh ~name:"u" Tag.Secrecy in
  let log = Audit.create ~capacity:16 in
  let record ~pid event =
    Audit.record log ~tick:(Audit.length log + 1) ~pid event
  in
  let taint ~pid subject tag =
    record ~pid
      (Audit.Tainted { op = "k"; subject; added = Label.singleton tag })
  in
  taint ~pid:1 (Audit.File "/o") t;
  taint ~pid:2 (Audit.Peer 1) t;
  (* a different tag flowing into pid 2 must not enter a t-filtered chain *)
  taint ~pid:2 (Audit.File "/o") u;
  record ~pid:2
    (Audit.Export_attempted
       {
         destination = "out";
         labels = Flow.make ~secrecy:(Label.singleton t) ();
         decision = Error (Flow.Secrecy_violation (Label.singleton t));
       });
  (* causes must precede effects: this later arrival is not a cause *)
  taint ~pid:2 (Audit.File "/o") t;
  let denial =
    match Explain.find_denial log () with
    | Some e -> e
    | None -> Alcotest.fail "denial lost"
  in
  (match Explain.explain log denial with
  | Ok chain ->
      check (Alcotest.list int_c) "chain is the tagged history, oldest first"
        [ 1; 2; 4 ] (seqs_of chain)
  | Error e -> Alcotest.failf "explain failed: %s" e);
  check (Alcotest.list int_c) "untagged walk sees every inbound edge"
    [ 1; 2; 3 ]
    (seqs_of (Explain.slice log ~tags:[] ~before:4 (Explain.Process 2)));
  check (Alcotest.list int_c) "tag_history covers arrival and upstream"
    [ 1; 2; 5 ]
    (seqs_of
       (Explain.slice log ~tags:[ "t" ] ~before:max_int (Explain.Process 2)));
  match Explain.edge_of_entry denial with
  | Some e -> check int_c "denial edge cites its entry" 4 e.Explain.seq
  | None -> Alcotest.fail "denial has no edge"

(* A chain whose labeling entry the ring has evicted ends by saying
   how many entries are gone, in every rendering. *)
let test_eviction_notice () =
  let open W5_os in
  let t = Tag.fresh ~name:"ev" Tag.Secrecy in
  let labels = Flow.make ~secrecy:(Label.singleton t) () in
  let log = Audit.create ~capacity:3 in
  Audit.record log ~tick:1 ~pid:9
    (Audit.Object_labeled { op = "fs.create"; path = "/f"; labels });
  Audit.record log ~tick:2 ~pid:7
    (Audit.Tainted
       { op = "fs.read_taint"; subject = Audit.File "/f";
         added = Label.singleton t });
  Audit.record log ~tick:3 ~pid:7 (Audit.App_note "n");
  Audit.record log ~tick:4 ~pid:7
    (Audit.Export_attempted
       { destination = "out"; labels;
         decision = Error (Flow.Secrecy_violation (Label.singleton t)) });
  check int_c "the labeling is evicted" 1 (Audit.evicted log);
  let entry =
    match Explain.find_denial log () with
    | Some e -> e
    | None -> Alcotest.fail "denial lost"
  in
  let notice =
    "(1 older audit entry was evicted; earlier history may be missing)"
  in
  (match Explain.explain_text log entry with
  | Ok text ->
      let lines = String.split_on_char '\n' text in
      check (Alcotest.list string_c) "the chain ends with the notice"
        [ "#2 t=2 /f -[fs.read_taint]-> pid 7 {ev}";
          "#4 t=4 pid 7 -[export]-> out {ev} DENIED: "
          ^ Flow.denial_to_string
              (Flow.Secrecy_violation (Label.singleton t));
          notice ]
        lines
  | Error e -> Alcotest.failf "explain failed: %s" e);
  (match Explain.explain_dot log entry with
  | Ok dot ->
      check bool_c "the dot chain carries the notice" true
        (contains dot "_evicted" && contains dot "1 older audit entry")
  | Error e -> Alcotest.failf "explain dot failed: %s" e);
  check bool_c "provenance carries the notice" true
    (contains
       (Explain.provenance_text log ~target:"/f"
          (Explain.file_provenance log ~path:"/f"))
       notice)

(* ---- Audit.query ---- *)

let test_audit_query () =
  let open W5_os in
  let tag = Tag.fresh ~name:"q.t" Tag.Secrecy in
  let l = Label.singleton tag in
  let tainted = Flow.make ~secrecy:l () in
  let log = Audit.create ~capacity:16 in
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
  let log = Audit.create ~capacity:4 in
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
    match W5_os.Explain.explain_text log entry with
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
  (match W5_os.Explain.explain log entry with
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
    match W5_os.Explain.explain_dot log entry with
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
  let per_tag =
    W5_os.Explain.file_provenance
      (W5_os.Kernel.audit (Platform.kernel platform))
      ~path:(Platform.user_file "alice" "profile")
  in
  let tag = Tag.name alice.Account.secret_tag in
  match List.assoc_opt tag per_tag with
  | None -> Alcotest.failf "tag %s missing from file provenance" tag
  | Some history ->
      check bool_c "history includes the labeling" true
        (List.exists
           (fun e -> e.W5_os.Explain.kind = "fs.create")
           history)

(* A process spawned with secrecy, and the gate child it starts, carry
   the tag from their first tick: their provenance starts from the
   labels of the Spawned entry and from the caller's tags at the call,
   not from an empty label. *)
let test_process_provenance_inherits () =
  let platform, alice, _pid = breach () in
  let log = W5_os.Kernel.audit (Platform.kernel platform) in
  let tag = Tag.name alice.Account.secret_tag in
  (* the perimeter process of the refused anonymous export, the newest *)
  let perimeter =
    W5_os.Audit.fold log ~init:None ~f:(fun found e ->
        match e.W5_os.Audit.event with
        | W5_os.Audit.Spawned { child; name; _ }
          when String.starts_with ~prefix:"perimeter:" name ->
            Some child
        | _ -> found)
  in
  let perimeter =
    match perimeter with
    | Some p -> p
    | None -> Alcotest.fail "no perimeter process in the log"
  in
  let gate_child =
    W5_os.Audit.fold log ~init:None ~f:(fun found e ->
        match e.W5_os.Audit.event with
        | W5_os.Audit.Gate_invoked { child; _ }
          when e.W5_os.Audit.pid = perimeter ->
            Some child
        | _ -> found)
  in
  let gate_child =
    match gate_child with
    | Some c -> c
    | None -> Alcotest.fail "the perimeter process called no gate"
  in
  let history pid =
    match List.assoc_opt tag (W5_os.Explain.process_provenance log ~pid) with
    | Some history -> history
    | None -> Alcotest.failf "pid %d does not list %s" pid tag
  in
  let ends_with kind pid history =
    match List.rev history with
    | last :: _ ->
        last.W5_os.Explain.kind = kind
        && last.W5_os.Explain.dst = W5_os.Explain.Process pid
    | [] -> false
  in
  let spawn = history perimeter in
  check bool_c "the perimeter process got the tag at its spawn" true
    (ends_with "spawn" perimeter spawn);
  let inherited = history gate_child in
  check bool_c "its gate child got the tag through the call" true
    (ends_with "gate" gate_child inherited);
  check bool_c "after the perimeter process's own history" true
    (List.for_all (fun e -> List.mem e inherited) spawn)

(* ---- a busy provider ---- *)

(* 2,002 requests on 8 users, every 7th (the last included) the thief:
   past the point where a 4,096-node copy of the log filled. The
   newest denial is the thief's refused export, and its chain must
   still reach the tainting read. *)
let test_busy_provider () =
  let society =
    W5_workload.Populate.build ~seed:5 ~users:8 ~friends_per_user:3
      ~photos_per_user:1 ~blog_posts_per_user:1 ()
  in
  let platform = society.W5_workload.Populate.platform in
  let mal = Principal.make Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev:mal);
  let users = society.W5_workload.Populate.users in
  let victim = List.hd users in
  let attacker =
    W5_http.Client.make ~name:"attacker" (Gateway.handler platform)
  in
  let clients = List.map (W5_workload.Populate.login society) users in
  let rng = W5_workload.Rng.create ~seed:6 in
  for i = 1 to 2002 do
    if i mod 7 = 0 then
      ignore
        (W5_http.Client.get attacker "/app/mal/thief"
           ~params:[ ("target", victim) ])
    else
      ignore
        (W5_http.Client.get (W5_workload.Rng.pick rng clients)
           "/app/core/social"
           ~params:[ ("user", W5_workload.Rng.pick rng users) ])
  done;
  let log = W5_os.Kernel.audit (Platform.kernel platform) in
  let entry =
    match W5_os.Explain.find_denial log () with
    | Some e -> e
    | None -> Alcotest.fail "no denial recorded"
  in
  let thief = W5_os.Explain.Process entry.W5_os.Audit.pid in
  match W5_os.Explain.explain log entry with
  | Error e -> Alcotest.failf "explain failed: %s" e
  | Ok chain ->
      check bool_c "the chain cites the thief's tainting read" true
        (List.exists
           (fun e ->
             e.W5_os.Explain.kind = "fs.read_taint"
             && e.W5_os.Explain.dst = thief)
           chain);
      check (Alcotest.option int_c) "the chain ends at the denial"
        (Some entry.W5_os.Audit.seq)
        (Option.map
           (fun e -> e.W5_os.Explain.seq)
           (List.nth_opt chain (List.length chain - 1)));
      check bool_c "the denied process is the thief" true
        (match W5_os.Explain.explain_text log entry with
        | Ok text -> contains text "(mal/thief)"
        | Error _ -> false)

(* ---- property: the slice answers what the graph walk answered ---- *)

let ref_tags =
  Array.init 3 (fun i -> Tag.fresh ~name:(Printf.sprintf "ref%d" i) Tag.Secrecy)

(* Four labels over three tags; the empty one makes chains over no tag,
   which follow every edge. *)
let ref_label i =
  match i with
  | 0 -> Label.singleton ref_tags.(0)
  | 1 -> Label.singleton ref_tags.(1)
  | 2 -> Label.of_list [ ref_tags.(0); ref_tags.(2) ]
  | _ -> Label.empty

let ref_path i = Printf.sprintf "/f%d" i

(* One audit event from a generated tuple: [kind] picks the event, [b]
   the other pid or the path, [c] the label, [deny] the decision. *)
let ref_event ((kind, _, b, c), deny) =
  let open W5_os in
  let labels = Flow.make ~secrecy:(ref_label c) () in
  let decision =
    if deny then Error (Flow.Secrecy_violation (ref_label c)) else Ok ()
  in
  let flow op =
    Audit.Flow_checked
      { op; src = labels; dst = Flow.bottom; decision;
        subject = Audit.File (ref_path b) }
  in
  match kind with
  | 0 -> Audit.Spawned { child = 1 + b; name = Printf.sprintf "app%d" b; labels }
  | 1 -> Audit.Gate_invoked { gate = Printf.sprintf "gate%d" c; child = 1 + b }
  | 2 ->
      Audit.Tainted
        { op = "fs.read_taint"; subject = Audit.File (ref_path b);
          added = ref_label c }
  | 3 ->
      Audit.Tainted
        { op = "ipc.recv"; subject = Audit.Peer (1 + b); added = ref_label c }
  | 4 -> flow "fs.read"
  | 5 -> flow "fs.write"
  | 6 -> flow "fs.create"
  | 7 ->
      Audit.Label_changed
        { old_labels = Flow.bottom; new_labels = labels; decision }
  | 8 ->
      Audit.Object_labeled
        { op = [| "fs.create"; "fs.mkdir"; "fs.relabel" |].(c mod 3);
          path = ref_path b; labels }
  | 9 -> Audit.Declassified { tag = ref_tags.(c mod 3); context = "gate" }
  | 10 ->
      Audit.Export_attempted
        { destination = Printf.sprintf "dest%d" b; labels; decision }
  | 11 ->
      Audit.Sync_applied
        { peer = "peer"; path = ref_path b;
          direction = (if deny then "push" else "pull") }
  | _ ->
      if deny then
        Audit.Sync_fault { path = ref_path b; action = "drop"; attempt = c }
      else
        Audit.Sync_recovered
          { peer = "peer"; path = ref_path b; phase = "pending" }

(* Random logs over four pids, four paths and three tags, small enough
   that neither budget of the old graph binds, and sometimes small
   enough in capacity to have evicted their oldest entries. For every
   retained denial the chain matches the graph walk's; for every path
   the file histories match. *)
let prop_slice_matches_graph_walk =
  let open QCheck in
  let event = pair (quad (0 -- 12) (0 -- 3) (0 -- 3) (0 -- 3)) bool in
  let arb =
    make
      ~print:Print.(pair int (list (pair (quad int int int int) bool)))
      Gen.(pair (4 -- 80) (list_size (0 -- 60) (gen event)))
  in
  Test.make ~name:"explain and file provenance match the graph walk"
    ~count:300 arb (fun (capacity, events) ->
      let log = W5_os.Audit.create ~capacity in
      List.iteri
        (fun i (((_, a, _, _), _) as ev) ->
          W5_os.Audit.record log ~tick:i ~pid:(1 + a) (ref_event ev))
        events;
      let g = Provenance_ref.of_log log in
      let chains_agree =
        List.for_all
          (fun entry ->
            match
              (W5_os.Explain.explain log entry, W5_os.Explain.edge_of_entry entry)
            with
            | Ok chain, Some edge -> chain = Provenance_ref.explain g edge
            | _ -> false)
          (W5_os.Audit.denials log)
      in
      let files_agree =
        List.for_all
          (fun i ->
            let path = ref_path i in
            W5_os.Explain.file_provenance log ~path
            = Provenance_ref.file_provenance g ~path)
          [ 0; 1; 2; 3 ]
      in
      chains_agree && files_agree
      && Provenance_ref.node_count g <= 4096
      && Provenance_ref.max_steps g < 10_000)

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
      let log = W5_os.Kernel.audit (Platform.kernel platform) in
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
                    (W5_os.Explain.file_provenance log ~path))
            files)
        users)

let suite =
  [
    Alcotest.test_case "causal chain walk" `Quick test_causal_chain;
    Alcotest.test_case "eviction notice ends the chain" `Quick
      test_eviction_notice;
    Alcotest.test_case "audit query filters" `Quick test_audit_query;
    Alcotest.test_case "audit query after eviction" `Quick
      test_audit_query_after_eviction;
    Alcotest.test_case "explain narrates the breach" `Quick test_explain_denial;
    Alcotest.test_case "audit report rollups" `Quick test_audit_report;
    Alcotest.test_case "file provenance sees the labeling" `Quick
      test_file_provenance_reports_arrival;
    Alcotest.test_case "process provenance starts from spawn labels" `Quick
      test_process_provenance_inherits;
    Alcotest.test_case "explain on a busy provider" `Quick test_busy_provider;
    QCheck_alcotest.to_alcotest prop_file_provenance_sound;
    QCheck_alcotest.to_alcotest prop_slice_matches_graph_walk;
  ]
