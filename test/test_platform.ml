(* Tests for the platform core: accounts, policies, the app registry
   (publish/version/fork, E11), declassifier logics, the perimeter
   (E1/E2/E4), and the provider front-end settings routes. *)

open W5_difc
open W5_http
open W5_platform

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let ok_s = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let ok_os = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %s" (W5_os.Os_error.to_string e)

let fresh_platform () = Platform.create ()

let signup platform user =
  ok_s (Platform.signup platform ~user ~password:(user ^ "-pw"))

let dummy_handler ctx (_ : App_registry.env) =
  ignore (W5_os.Syscall.respond ctx "dummy")

(* ---- accounts ---- *)

let test_signup_and_auth () =
  let platform = fresh_platform () in
  let account = signup platform "alice" in
  check string_c "user" "alice" account.Account.user;
  check bool_c "auth good" true
    (Platform.authenticate platform ~user:"alice" ~password:"alice-pw");
  check bool_c "auth bad" false
    (Platform.authenticate platform ~user:"alice" ~password:"nope");
  check bool_c "auth unknown" false
    (Platform.authenticate platform ~user:"nobody" ~password:"x");
  (match Platform.signup platform ~user:"alice" ~password:"x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate signup accepted");
  match Platform.signup platform ~user:"bad/name" ~password:"x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "slash in name accepted"

let test_account_tags_and_files () =
  let platform = fresh_platform () in
  let account = signup platform "bob" in
  check bool_c "owns secret" true (Account.owns_tag account account.Account.secret_tag);
  check bool_c "owns write" true (Account.owns_tag account account.Account.write_tag);
  (* seeded files exist with the right labels *)
  let labels =
    ok_os
      (Platform.with_ctx platform ~name:"peek" (fun ctx ->
           W5_os.Syscall.stat ctx "/users/bob/profile"))
  in
  check bool_c "secret on file" true
    (Label.mem account.Account.secret_tag labels.W5_os.Fs.labels.Flow.secrecy);
  check bool_c "write tag on file" true
    (Label.mem account.Account.write_tag labels.W5_os.Fs.labels.Flow.integrity);
  (* tag ownership index *)
  match Platform.owner_of_tag platform account.Account.secret_tag with
  | Some owner -> check string_c "owner" "bob" owner.Account.user
  | None -> Alcotest.fail "tag owner lost"

let test_sessions_and_login () =
  let platform = fresh_platform () in
  ignore (signup platform "carol");
  let session = ok_s (Platform.login platform ~user:"carol" ~password:"carol-pw") in
  check (Alcotest.option string_c) "resolves" (Some "carol")
    (Platform.session_user platform ~sid:session.Session.sid);
  Platform.logout platform ~sid:session.Session.sid;
  check (Alcotest.option string_c) "gone" None
    (Platform.session_user platform ~sid:session.Session.sid);
  match Platform.login platform ~user:"carol" ~password:"wrong" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad login accepted"

let test_read_protection_relabel () =
  let platform = fresh_platform () in
  let account = signup platform "dave" in
  let tag = Platform.enable_read_protection platform account in
  check bool_c "restricted" true (Tag.restricted tag);
  let labels =
    ok_os
      (Platform.with_ctx platform ~name:"peek" (fun ctx ->
           W5_os.Syscall.stat ctx "/users/dave/profile"))
  in
  check bool_c "old file now read-protected" true
    (Label.mem tag labels.W5_os.Fs.labels.Flow.secrecy);
  (* idempotent *)
  let again = Platform.enable_read_protection platform account in
  check bool_c "same tag" true (Tag.equal tag again)

(* ---- policy ---- *)

let test_policy_bookkeeping () =
  let policy = Policy.create () in
  let tag = Tag.fresh ~name:"p.s" Tag.Secrecy in
  check (Alcotest.option string_c) "no rule" None (Policy.declassifier_for policy ~tag);
  Policy.authorize_declassifier policy ~tag ~gate:"g1";
  check (Alcotest.option string_c) "rule" (Some "g1") (Policy.declassifier_for policy ~tag);
  Policy.authorize_declassifier policy ~tag ~gate:"g2";
  check (Alcotest.option string_c) "replaced" (Some "g2") (Policy.declassifier_for policy ~tag);
  Policy.revoke_declassifier policy ~tag;
  check (Alcotest.option string_c) "revoked" None (Policy.declassifier_for policy ~tag);
  Policy.enable_app policy "a/b";
  Policy.enable_app policy "a/b";
  check int_c "no dup" 1 (List.length (Policy.enabled_apps policy));
  Policy.pin_version policy ~app:"a/b" ~version:"1.2";
  check (Alcotest.option string_c) "pin" (Some "1.2") (Policy.pinned_version policy ~app:"a/b");
  Policy.unpin_version policy ~app:"a/b";
  check (Alcotest.option string_c) "unpin" None (Policy.pinned_version policy ~app:"a/b");
  Policy.choose_module policy ~slot:"photo.crop" ~module_id:"devA/crop";
  check (Alcotest.option string_c) "module" (Some "devA/crop")
    (Policy.module_for policy ~slot:"photo.crop");
  Policy.delegate_write policy "a/b";
  check bool_c "write" true (Policy.write_delegated policy "a/b");
  Policy.revoke_write policy "a/b";
  check bool_c "revoked write" false (Policy.write_delegated policy "a/b");
  check bool_c "js off by default" false (Policy.allow_javascript policy);
  Policy.set_allow_javascript policy true;
  check bool_c "js on" true (Policy.allow_javascript policy)

(* ---- registry ---- *)

let test_registry_publish_and_versions () =
  let registry = App_registry.create () in
  let dev = Principal.make Principal.Developer "devx" in
  let app =
    ok_s
      (App_registry.publish registry ~dev ~name:"widget" ~version:"1.0"
         ~source:(App_registry.Open_source "v1 source") dummy_handler)
  in
  check string_c "id" "devx/widget" app.App_registry.id;
  ignore
    (ok_s
       (App_registry.publish registry ~dev ~name:"widget" ~version:"2.0"
          ~source:(App_registry.Open_source "v2 source") dummy_handler));
  (* duplicate version rejected *)
  (match
     App_registry.publish registry ~dev ~name:"widget" ~version:"2.0"
       dummy_handler
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate version accepted");
  (* another developer cannot squat the same id *)
  let dev2 = Principal.make Principal.Developer "devx" in
  (match
     App_registry.publish registry ~dev:dev2 ~name:"widget" ~version:"9.0"
       dummy_handler
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "squatting accepted");
  (* resolution: latest by default, pinned on request *)
  (match App_registry.resolve registry ~id:"devx/widget" () with
  | Some (_, v) -> check string_c "latest" "2.0" v.App_registry.v
  | None -> Alcotest.fail "resolve failed");
  (match App_registry.resolve registry ~id:"devx/widget" ~version:"1.0" () with
  | Some (_, v) -> check string_c "pinned" "1.0" v.App_registry.v
  | None -> Alcotest.fail "version resolve failed");
  check (Alcotest.option string_c) "source" (Some "v2 source")
    (App_registry.source_of registry ~id:"devx/widget" ())

let test_registry_fork () =
  let registry = App_registry.create () in
  let dev = Principal.make Principal.Developer "orig" in
  ignore
    (ok_s
       (App_registry.publish registry ~dev ~name:"app" ~version:"1.0"
          ~source:(App_registry.Open_source "src") dummy_handler));
  ignore
    (ok_s
       (App_registry.publish registry ~dev ~name:"closed" ~version:"1.0"
          ~source:App_registry.Closed_binary dummy_handler));
  let forker = Principal.make Principal.Developer "forker" in
  let fork =
    ok_s (App_registry.fork registry ~new_dev:forker ~from_id:"orig/app" ~name:"app2" ())
  in
  check string_c "fork id" "forker/app2" fork.App_registry.id;
  check (Alcotest.option string_c) "remembers origin" (Some "orig/app")
    fork.App_registry.forked_from;
  (* closed binaries cannot be forked *)
  (match
     App_registry.fork registry ~new_dev:forker ~from_id:"orig/closed"
       ~name:"stolen" ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forked a closed binary");
  match App_registry.fork registry ~new_dev:forker ~from_id:"nope/x" ~name:"y" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forked a ghost"

let test_registry_edges_and_installs () =
  let registry = App_registry.create () in
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (App_registry.publish registry ~dev ~name:"lib" ~version:"1" dummy_handler));
  ignore
    (ok_s
       (App_registry.publish registry ~dev ~name:"app" ~version:"1"
          ~imports:[ "d/lib" ] ~embeds:[ "d/other" ] dummy_handler));
  check
    (Alcotest.list (Alcotest.pair string_c string_c))
    "imports" [ ("d/app", "d/lib") ]
    (App_registry.import_edges registry);
  check
    (Alcotest.list (Alcotest.pair string_c string_c))
    "embeds" [ ("d/app", "d/other") ]
    (App_registry.embed_edges registry);
  App_registry.record_install registry "d/app";
  App_registry.record_install registry "d/app";
  check int_c "installs" 2 (App_registry.installs registry "d/app")

(* ---- declassifier logics (unit level) ---- *)

let test_declassifier_logics () =
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  ignore
    (ok_os
       (Platform.write_user_record platform alice ~file:"friends"
          (W5_store.Record.of_fields [ ("friends", "bob,carol") ])));
  let run_logic logic ~viewer =
    ok_os
      (Platform.with_ctx platform ~name:"logic-test"
         ~caps:alice.Account.caps (fun ctx ->
           Ok (logic ctx ~owner:"alice" ~viewer ~data:"payload")))
  in
  check (Alcotest.option string_c) "everyone" (Some "payload")
    (run_logic Declassifier.everyone ~viewer:None);
  check (Alcotest.option string_c) "nobody" None
    (run_logic Declassifier.nobody ~viewer:(Some "alice"));
  check (Alcotest.option string_c) "owner_only yes" (Some "payload")
    (run_logic Declassifier.owner_only ~viewer:(Some "alice"));
  check (Alcotest.option string_c) "owner_only no" None
    (run_logic Declassifier.owner_only ~viewer:(Some "bob"));
  check (Alcotest.option string_c) "friends yes" (Some "payload")
    (run_logic Declassifier.friends_only ~viewer:(Some "bob"));
  check (Alcotest.option string_c) "friends no" None
    (run_logic Declassifier.friends_only ~viewer:(Some "mallory"));
  check (Alcotest.option string_c) "friends anon" None
    (run_logic Declassifier.friends_only ~viewer:None);
  check (Alcotest.option string_c) "group" (Some "payload")
    (run_logic (Declassifier.group ~members:[ "zed" ]) ~viewer:(Some "zed"));
  check (Alcotest.option string_c) "watermark" (Some "payload [via w5]")
    (run_logic
       (Declassifier.watermarked ~stamp:" [via w5]" Declassifier.everyone)
       ~viewer:(Some "bob"))

(* ---- perimeter ---- *)

let test_perimeter_boilerplate () =
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  let bob = signup platform "bob" in
  let labels = Flow.make ~secrecy:(Label.singleton alice.Account.secret_tag) () in
  (* to the owner: allowed *)
  (match Perimeter.export platform ~viewer:(Some alice) ~data:"d" ~labels () with
  | Ok out -> check string_c "owner gets data" "d" out
  | Error r -> Alcotest.failf "refused: %s" (Perimeter.refusal_to_string r));
  (* to anyone else: refused with No_rule *)
  (match Perimeter.export platform ~viewer:(Some bob) ~data:"d" ~labels () with
  | Error (Perimeter.No_rule tag) ->
      check bool_c "names tag" true (Tag.equal tag alice.Account.secret_tag)
  | Ok _ -> Alcotest.fail "leaked"
  | Error r -> Alcotest.failf "wrong refusal: %s" (Perimeter.refusal_to_string r));
  (* anonymous: refused *)
  match Perimeter.export platform ~viewer:None ~data:"d" ~labels () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "leaked to anonymous"

let test_perimeter_commingled_tags () =
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  let bob = signup platform "bob" in
  let carol = signup platform "carol" in
  (* alice and bob both friend carol and authorize friends-only *)
  List.iter
    (fun (account : Account.t) ->
      ignore
        (ok_os
           (Platform.write_user_record platform account ~file:"friends"
              (W5_store.Record.of_fields [ ("friends", "carol") ])));
      ignore
        (Declassifier.install_and_authorize platform ~account ~name:"friends"
           Declassifier.friends_only))
    [ alice; bob ];
  let labels =
    Flow.make
      ~secrecy:
        (Label.of_list [ alice.Account.secret_tag; bob.Account.secret_tag ])
      ()
  in
  (* carol is approved by both declassifiers *)
  (match Perimeter.export platform ~viewer:(Some carol) ~data:"mix" ~labels () with
  | Ok out -> check string_c "both cleared" "mix" out
  | Error r -> Alcotest.failf "refused: %s" (Perimeter.refusal_to_string r));
  (* a stranger fails on whichever tag comes first *)
  let mallory = signup platform "mallory" in
  match Perimeter.export platform ~viewer:(Some mallory) ~data:"mix" ~labels () with
  | Error (Perimeter.Refused_by _) -> ()
  | Ok _ -> Alcotest.fail "leaked commingled data"
  | Error r -> Alcotest.failf "wrong refusal: %s" (Perimeter.refusal_to_string r)

let test_perimeter_unknown_tag () =
  let platform = fresh_platform () in
  let viewer = signup platform "viewer" in
  let stray = Tag.fresh ~name:"stray" Tag.Secrecy in
  match
    Perimeter.export platform ~viewer:(Some viewer) ~data:"d"
      ~labels:(Flow.make ~secrecy:(Label.singleton stray) ()) ()
  with
  | Error (Perimeter.Unknown_tag _) -> ()
  | Ok _ -> Alcotest.fail "leaked unowned tag"
  | Error r -> Alcotest.failf "wrong refusal: %s" (Perimeter.refusal_to_string r)

(* ---- gateway settings routes ---- *)

let test_settings_routes () =
  let platform = fresh_platform () in
  let account = signup platform "erin" in
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  let client = Client.make ~name:"erin" (Gateway.handler platform) in
  let r = Client.post client "/login" ~form:[ ("user", "erin"); ("pass", "erin-pw") ] in
  check bool_c "login" true (Response.is_success r);
  (* js opt-in *)
  let r = Client.get client "/settings" ~params:[ ("action", "allow_js"); ("value", "on") ] in
  check bool_c "allow_js" true (Response.is_success r);
  check bool_c "policy updated" true (Policy.allow_javascript account.Account.policy);
  (* write delegation *)
  let r =
    Client.get client "/settings"
      ~params:[ ("action", "delegate_write"); ("app", "d/social") ]
  in
  check bool_c "delegate" true (Response.is_success r);
  check bool_c "delegated" true (Policy.write_delegated account.Account.policy "d/social");
  (* declassifier choice requires a real gate *)
  let r =
    Client.get client "/settings" ~params:[ ("action", "declassifier"); ("gate", "ghost") ]
  in
  check int_c "bad gate rejected" 400 (Response.status_code r.Response.status);
  let gate =
    Declassifier.install platform ~account ~name:"friends" Declassifier.friends_only
  in
  let r =
    Client.get client "/settings" ~params:[ ("action", "declassifier"); ("gate", gate) ]
  in
  check bool_c "gate accepted" true (Response.is_success r);
  check (Alcotest.option string_c) "rule set" (Some gate)
    (Policy.declassifier_for account.Account.policy ~tag:account.Account.secret_tag);
  (* module choice + pin *)
  let r =
    Client.get client "/settings"
      ~params:[ ("action", "module"); ("slot", "photo.crop"); ("module", "a/crop") ]
  in
  check bool_c "module" true (Response.is_success r);
  let r =
    Client.get client "/settings"
      ~params:[ ("action", "pin"); ("app", "d/social"); ("version", "1.0") ]
  in
  check bool_c "pin" true (Response.is_success r);
  (* unknown action *)
  let r = Client.get client "/settings" ~params:[ ("action", "wat") ] in
  check int_c "unknown action" 400 (Response.status_code r.Response.status);
  (* settings require login *)
  let anon = Client.make (Gateway.handler platform) in
  let r = Client.get anon "/settings" ~params:[ ("action", "allow_js") ] in
  check int_c "anon unauthorized" 401 (Response.status_code r.Response.status)

let test_source_route () =
  let platform = fresh_platform () in
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  ignore (W5_apps.Malicious.publish_all platform ~dev);
  let client = Client.make (Gateway.handler platform) in
  let r = Client.get client "/source" ~params:[ ("app", "d/social") ] in
  check bool_c "open source shown" true (Response.is_success r);
  check bool_c "mentions reads" true (Client.saw client "tainting reads");
  let r = Client.get client "/source" ~params:[ ("app", "d/thief") ] in
  check int_c "closed binary hidden" 404 (Response.status_code r.Response.status)

let suite =
  [
    Alcotest.test_case "signup and auth" `Quick test_signup_and_auth;
    Alcotest.test_case "account tags and files" `Quick test_account_tags_and_files;
    Alcotest.test_case "sessions and login" `Quick test_sessions_and_login;
    Alcotest.test_case "read protection relabel" `Quick test_read_protection_relabel;
    Alcotest.test_case "policy bookkeeping" `Quick test_policy_bookkeeping;
    Alcotest.test_case "registry publish and versions" `Quick
      test_registry_publish_and_versions;
    Alcotest.test_case "registry fork" `Quick test_registry_fork;
    Alcotest.test_case "registry edges and installs" `Quick
      test_registry_edges_and_installs;
    Alcotest.test_case "declassifier logics" `Quick test_declassifier_logics;
    Alcotest.test_case "perimeter boilerplate" `Quick test_perimeter_boilerplate;
    Alcotest.test_case "perimeter commingled tags" `Quick
      test_perimeter_commingled_tags;
    Alcotest.test_case "perimeter unknown tag" `Quick test_perimeter_unknown_tag;
    Alcotest.test_case "settings routes" `Quick test_settings_routes;
    Alcotest.test_case "source route" `Quick test_source_route;
  ]

(* ---- invitations (§2 one-click adoption) ---- *)

let test_invitations () =
  let platform = fresh_platform () in
  ignore (signup platform "host");
  let guest = signup platform "guest" in
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  let registry = Invite.create_registry () in
  (* bad targets rejected *)
  (match Invite.send registry platform ~from_user:"host" ~to_user:"ghost" ~app:"d/social" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invited a ghost");
  (match Invite.send registry platform ~from_user:"host" ~to_user:"guest" ~app:"d/ghost" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invited to a ghost app");
  let invite =
    ok_s
      (Invite.send registry platform ~from_user:"host" ~to_user:"guest"
         ~app:"d/social" ~suggest_write:true ())
  in
  (* duplicates rejected while pending *)
  (match Invite.send registry platform ~from_user:"host" ~to_user:"guest" ~app:"d/social" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate invitation accepted");
  check int_c "pending" 1 (List.length (Invite.pending registry ~to_user:"guest"));
  (* only the invitee can accept *)
  (match Invite.accept registry platform ~invite_id:invite.Invite.invite_id ~to_user:"host" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong user accepted");
  ignore (ok_s (Invite.accept registry platform ~invite_id:invite.Invite.invite_id ~to_user:"guest"));
  check bool_c "app enabled" true (Policy.app_enabled guest.Account.policy "d/social");
  check bool_c "write delegated as suggested" true
    (Policy.write_delegated guest.Account.policy "d/social");
  check int_c "install counted" 1 (App_registry.installs (Platform.registry platform) "d/social");
  (* cannot accept twice *)
  match Invite.accept registry platform ~invite_id:invite.Invite.invite_id ~to_user:"guest" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double accept"

let test_invitations_over_http () =
  let platform = fresh_platform () in
  ignore (signup platform "host");
  ignore (signup platform "guest");
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  let login name =
    let c = Client.make ~name (Gateway.handler platform) in
    ignore (Client.post c "/login" ~form:[ ("user", name); ("pass", name ^ "-pw") ]);
    c
  in
  let host = login "host" in
  let r =
    Client.post host "/invite"
      ~form:[ ("to", "guest"); ("app", "d/social"); ("write", "on") ]
  in
  check int_c "invite sent" 200 (Response.status_code r.Response.status);
  let guest = login "guest" in
  let r = Client.get guest "/invites" in
  check bool_c "listed" true (Client.saw guest "host invites you to d/social");
  ignore r;
  (* extract the id lazily: it is inv-1 in a fresh registry *)
  let r = Client.post guest "/invite_accept" ~form:[ ("id", "inv-1") ] in
  check int_c "accepted" 200 (Response.status_code r.Response.status);
  let account = Platform.account_exn platform "guest" in
  check bool_c "enabled via http" true (Policy.app_enabled account.Account.policy "d/social")

(* ---- integrity protection: vetted components (§3.1) ---- *)

let test_integrity_protection_vetting () =
  let platform = fresh_platform () in
  let user = signup platform "careful" in
  let dev = Principal.make Principal.Developer "d" in
  let handler ctx (_ : App_registry.env) = ignore (W5_os.Syscall.respond ctx "ran") in
  ignore
    (ok_s
       (App_registry.publish (Platform.registry platform) ~dev ~name:"lib"
          ~version:"1.0" ~source:(App_registry.Open_source "lib") handler));
  ignore
    (ok_s
       (App_registry.publish (Platform.registry platform) ~dev ~name:"tool"
          ~version:"1.0" ~source:(App_registry.Open_source "tool")
          ~imports:[ "d/lib" ] handler));
  ignore (ok_s (Platform.enable_app platform ~user:"careful" ~app:"d/tool"));
  Policy.set_require_vetted user.Account.policy true;
  let client = Client.make ~name:"careful" (Gateway.handler platform) in
  ignore (Client.post client "/login" ~form:[ ("user", "careful"); ("pass", "careful-pw") ]);
  (* nothing vetted: refused *)
  let r = Client.get client "/app/d/tool" in
  check int_c "unvetted refused" 403 (Response.status_code r.Response.status);
  (* vetting the app but not its import is not enough *)
  Platform.add_vetted platform "d/tool";
  let r = Client.get client "/app/d/tool" in
  check int_c "import unvetted" 403 (Response.status_code r.Response.status);
  Platform.add_vetted platform "d/lib";
  let r = Client.get client "/app/d/tool" in
  check int_c "fully vetted" 200 (Response.status_code r.Response.status);
  (* editors feed the vetted list *)
  Platform.set_vetted platform [];
  let editor = W5_rank.Editor.create "vetter" in
  W5_rank.Editor.endorse editor ~app:"d/tool" ~reason:"audited";
  W5_rank.Editor.endorse editor ~app:"d/lib" ~reason:"audited";
  let n = W5_rank.Code_search.vet_platform ~editors:[ editor ] platform in
  check int_c "two vetted" 2 n;
  let r = Client.get client "/app/d/tool" in
  check int_c "vetted via editor" 200 (Response.status_code r.Response.status);
  (* a flag retracts the vetting *)
  W5_rank.Editor.flag_antisocial editor ~app:"d/lib" ~reason:"gone bad";
  ignore (W5_rank.Code_search.vet_platform ~editors:[ editor ] platform);
  let r = Client.get client "/app/d/tool" in
  check int_c "flagged import blocks again" 403 (Response.status_code r.Response.status)

let suite =
  suite
  @ [
      Alcotest.test_case "invitations" `Quick test_invitations;
      Alcotest.test_case "invitations over http" `Quick test_invitations_over_http;
      Alcotest.test_case "integrity protection vetting" `Quick
        test_integrity_protection_vetting;
    ]

(* ---- perimeter robustness ---- *)

let test_perimeter_misbehaving_gate_budget () =
  (* a gate that re-taints its response with the very tag it was asked
     to clear: the perimeter must refuse, not loop *)
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  let tag = alice.Account.secret_tag in
  W5_os.Kernel.register_gate (Platform.kernel platform) ~name:"bad-gate"
    ~owner:alice.Account.principal ~caps:alice.Account.caps
    ~entry:(fun ctx _arg ->
      (* drop then re-add: the response still carries the tag *)
      ignore (W5_os.Syscall.declassify_self ctx tag);
      ignore (W5_os.Syscall.add_taint ctx (Label.singleton tag));
      ignore (W5_os.Syscall.respond ctx "haha"));
  Policy.authorize_declassifier alice.Account.policy ~tag ~gate:"bad-gate";
  let viewer = signup platform "viewer" in
  match
    Perimeter.export platform ~viewer:(Some viewer) ~data:"d"
      ~labels:(Flow.make ~secrecy:(Label.singleton tag) ()) ()
  with
  | Error (Perimeter.Refused_by { gate; _ }) ->
      check string_c "names the gate" "bad-gate" gate
  | Ok _ -> Alcotest.fail "leaked through a misbehaving gate"
  | Error r -> Alcotest.failf "wrong refusal: %s" (Perimeter.refusal_to_string r)

let test_perimeter_transforming_gate () =
  (* watermarking declassifier: the exported payload differs from the
     app's output — the perimeter must carry the transformation *)
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  ignore
    (Declassifier.install_and_authorize platform ~account:alice ~name:"wm"
       (Declassifier.watermarked ~stamp:" [exported]" Declassifier.everyone));
  let viewer = signup platform "viewer" in
  match
    Perimeter.export platform ~viewer:(Some viewer) ~data:"content"
      ~labels:(Flow.make ~secrecy:(Label.singleton alice.Account.secret_tag) ()) ()
  with
  | Ok out -> check string_c "transformed" "content [exported]" out
  | Error r -> Alcotest.failf "refused: %s" (Perimeter.refusal_to_string r)

let test_perimeter_revocation () =
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  ignore
    (Declassifier.install_and_authorize platform ~account:alice ~name:"open"
       Declassifier.everyone);
  let viewer = signup platform "viewer" in
  let labels = Flow.make ~secrecy:(Label.singleton alice.Account.secret_tag) () in
  (match Perimeter.export platform ~viewer:(Some viewer) ~data:"d" ~labels () with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "refused: %s" (Perimeter.refusal_to_string r));
  (* alice changes her mind: rule revoked, exports stop immediately *)
  Policy.revoke_declassifier alice.Account.policy ~tag:alice.Account.secret_tag;
  match Perimeter.export platform ~viewer:(Some viewer) ~data:"d" ~labels () with
  | Error (Perimeter.No_rule _) -> ()
  | Ok _ -> Alcotest.fail "revocation ignored"
  | Error r -> Alcotest.failf "wrong refusal: %s" (Perimeter.refusal_to_string r)

(* ---- redaction combinators ---- *)

let test_redact_spans () =
  let marked = "a " ^ Declassifier.secret_span "hidden" ^ " b" in
  check bool_c "detected" true (Declassifier.contains_secret_span marked);
  check bool_c "clean not detected" false (Declassifier.contains_secret_span "a b");
  let redacted = Declassifier.redact_spans ~replacement:"XXX" marked in
  check string_c "redacted" "a XXX b" redacted;
  check bool_c "no marker residue" false (Declassifier.contains_secret_span redacted);
  (* multiple + unterminated spans *)
  let two =
    Declassifier.secret_span "one" ^ "|" ^ Declassifier.secret_span "two"
  in
  check string_c "both" "X|X" (Declassifier.redact_spans ~replacement:"X" two);
  let unterminated = "keep " ^ Declassifier.secret_open ^ "tail" in
  check string_c "tail dropped" "keep R"
    (Declassifier.redact_spans ~replacement:"R" unterminated)

let test_rate_limit_unit () =
  let limiter = Rate_limit.create ~capacity:2 ~refill_per_tick:1 () in
  check bool_c "1" true (Rate_limit.allow limiter ~key:"k" ~now:0);
  check bool_c "2" true (Rate_limit.allow limiter ~key:"k" ~now:0);
  check bool_c "3 blocked" false (Rate_limit.allow limiter ~key:"k" ~now:0);
  (* other keys unaffected *)
  check bool_c "other key" true (Rate_limit.allow limiter ~key:"j" ~now:0);
  (* time refills, capped at capacity *)
  check bool_c "refilled" true (Rate_limit.allow limiter ~key:"k" ~now:1);
  check int_c "capped" 2 (Rate_limit.remaining limiter ~key:"k" ~now:100);
  Rate_limit.reset limiter ~key:"k";
  check int_c "reset to full" 2 (Rate_limit.remaining limiter ~key:"k" ~now:100)

let suite =
  suite
  @ [
      Alcotest.test_case "perimeter misbehaving gate budget" `Quick
        test_perimeter_misbehaving_gate_budget;
      Alcotest.test_case "perimeter transforming gate" `Quick
        test_perimeter_transforming_gate;
      Alcotest.test_case "perimeter revocation" `Quick test_perimeter_revocation;
      Alcotest.test_case "redact spans" `Quick test_redact_spans;
      Alcotest.test_case "rate limit unit" `Quick test_rate_limit_unit;
    ]

(* ---- provider admin report ---- *)

let test_admin_report () =
  let platform = fresh_platform () in
  ignore (signup platform "alice");
  ignore (signup platform "mallory");
  let dev = Principal.make Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev);
  (match Platform.enable_app platform ~user:"mallory" ~app:"mal/thief" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let mallory = Client.make ~name:"mallory" (Gateway.handler platform) in
  ignore (Client.post mallory "/login" ~form:[ ("user", "mallory"); ("pass", "mallory-pw") ]);
  ignore (Client.get mallory "/app/mal/thief" ~params:[ ("target", "alice") ]);
  ignore (Client.get mallory "/app/mal/thief" ~params:[ ("target", "alice") ]);
  ignore (Client.get mallory "/app/mal/thief" ~params:[ ("target", "alice") ]);
  let report = Admin.collect platform in
  check int_c "users" 2 report.Admin.users;
  check int_c "apps" 6 report.Admin.apps;
  check bool_c "requests counted" true (report.Admin.requests_served >= 3);
  check bool_c "denials recorded" true (report.Admin.total_denials >= 3);
  check bool_c "export denials" true (report.Admin.export_denials >= 3);
  (* the thief shows up in per-app attribution *)
  let thief =
    List.find (fun s -> s.Admin.app_id = "mal/thief") report.Admin.per_app
  in
  check int_c "thief installs" 1 thief.Admin.installs;
  check bool_c "thief denials attributed" true (thief.Admin.denials >= 3);
  check bool_c "flagged as suspicious" true
    (List.mem "mal/thief" (Admin.suspicious_apps report));
  (* the rendering is data-free and mentions the thief *)
  let text = Admin.render report in
  check bool_c "render mentions app" true
    (let needle = "mal/thief" in
     let rec scan i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || scan (i + 1))
     in
     scan 0)

(* Attribution reads the log alone, not the process table. Alice's
   friends-only declassifier makes each refused export run two more
   processes (the perimeter's context and the gate child). *)
let test_admin_attribution_from_log () =
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  ignore
    (Declassifier.install_and_authorize platform ~account:alice ~name:"friends"
       Declassifier.friends_only);
  ignore (signup platform "mallory");
  let dev = Principal.make Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev);
  (match Platform.enable_app platform ~user:"mallory" ~app:"mal/thief" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let mallory = Client.make ~name:"mallory" (Gateway.handler platform) in
  ignore
    (Client.post mallory "/login"
       ~form:[ ("user", "mallory"); ("pass", "mallory-pw") ]);
  for _ = 1 to 300 do
    ignore (Client.get mallory "/app/mal/thief" ~params:[ ("target", "alice") ])
  done;
  let report = Admin.collect platform in
  let thief =
    List.find (fun s -> s.Admin.app_id = "mal/thief") report.Admin.per_app
  in
  check int_c "one denial per request" 300 thief.Admin.denials;
  check bool_c "flagged as suspicious" true
    (List.mem "mal/thief" (Admin.suspicious_apps report))

(* Once the bounded audit log has evicted every [Spawned] entry, the
   report's spawn count still reads the kernel's lifetime meter, and
   the rendering says how much of the log its other counts miss. *)
let test_admin_report_after_eviction () =
  let platform = fresh_platform () in
  List.iter (fun user -> ignore (signup platform user)) [ "u1"; "u2"; "u3" ];
  let kernel = Platform.kernel platform in
  for _ = 1 to (2 * W5_os.Kernel.default_audit_capacity) + 1 do
    W5_os.Kernel.record kernel ~pid:0 (W5_os.Audit.App_note "filler")
  done;
  let log = W5_os.Kernel.audit kernel in
  check bool_c "no Spawned entry retained" false
    (List.exists
       (fun (e : W5_os.Audit.entry) ->
         match e.W5_os.Audit.event with
         | W5_os.Audit.Spawned _ -> true
         | _ -> false)
       (W5_os.Audit.entries log));
  let spawns =
    W5_obs.Metrics.value (W5_os.Kernel.meters kernel).W5_os.Kernel.spawns
  in
  check bool_c "signups spawned processes" true (spawns > 0);
  let report = Admin.collect platform in
  check int_c "spawned is the lifetime count" spawns
    report.Admin.total_processes_spawned;
  let text = Admin.render report in
  let contains = Substring.contains text in
  check bool_c "render prints the evicted count" true
    (contains (Printf.sprintf "%d evicted" (W5_os.Audit.evicted log)));
  check bool_c "render scopes denials to the retained log" true
    (contains "denials in the retained log")

let suite =
  suite
  @ [
      Alcotest.test_case "admin report" `Quick test_admin_report;
      Alcotest.test_case "admin attribution from the log" `Quick
        test_admin_attribution_from_log;
      Alcotest.test_case "admin report after audit eviction" `Quick
        test_admin_report_after_eviction;
    ]

(* ---- groups: circle-owned restricted tags ---- *)

let test_group_lifecycle () =
  let platform = fresh_platform () in
  let founder = signup platform "founder" in
  let member = signup platform "member" in
  ignore member;
  ignore (signup platform "outsider");
  let group = ok_s (Group.create platform ~founder ~name:"climbers") in
  check bool_c "restricted tag" true (Tag.restricted (Group.tag group));
  check (Alcotest.list string_c) "founder is first member" [ "founder" ]
    (Group.members group);
  (* duplicate and invalid names *)
  (match Group.create platform ~founder ~name:"climbers" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate group");
  (match Group.create platform ~founder ~name:"a/b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "slash in group name");
  (* membership *)
  ignore (ok_s (Group.add_member platform group ~user:"member"));
  ignore (ok_s (Group.add_member platform group ~user:"member"));
  check int_c "no dup members" 2 (List.length (Group.members group));
  (match Group.add_member platform group ~user:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "added a ghost");
  (* posting and reading *)
  ignore (ok_os (Group.post platform group ~author:founder ~id:"p1" ~body:"summit at 6"));
  let posts = ok_os (Group.read_posts platform group ~reader:member) in
  check int_c "one post" 1 (List.length posts);
  check bool_c "body" true (String.length (snd (List.hd posts)) > 0);
  (* outsiders cannot even read *)
  let outsider = Platform.account_exn platform "outsider" in
  (match Group.read_posts platform group ~reader:outsider with
  | Error e -> check bool_c "denied" true (W5_os.Os_error.is_denied e)
  | Ok _ -> Alcotest.fail "outsider read group data");
  (* non-members cannot post *)
  match Group.post platform group ~author:outsider ~id:"spam" ~body:"x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "outsider posted"

let test_group_export_follows_membership () =
  let platform = fresh_platform () in
  let founder = signup platform "founder" in
  ignore (signup platform "member");
  ignore (signup platform "outsider");
  let group = ok_s (Group.create platform ~founder ~name:"book-club") in
  ignore (ok_s (Group.add_member platform group ~user:"member"));
  ignore (ok_os (Group.post platform group ~author:founder ~id:"p" ~body:"GROUP-SECRET"));
  (* an app serving group pages *)
  let dev = Principal.make Principal.Developer "gdev" in
  let handler ctx (_ : App_registry.env) =
    match Group.find platform ~name:"book-club" with
    | None -> ()
    | Some group -> (
        match W5_os.Syscall.stat ctx (Group.dir group) with
        | Error e ->
            ignore (W5_os.Syscall.respond ctx ("no access: " ^ W5_os.Os_error.to_string e))
        | Ok st -> (
            match W5_os.Syscall.add_taint ctx st.W5_os.Fs.labels.Flow.secrecy with
            | Error e ->
                ignore
                  (W5_os.Syscall.respond ctx
                     ("no access: " ^ W5_os.Os_error.to_string e))
            | Ok () ->
                let body =
                  match
                    W5_os.Syscall.read_file_taint ctx (Group.dir group ^ "/p")
                  with
                  | Ok data -> data
                  | Error e -> "unreadable: " ^ W5_os.Os_error.to_string e
                in
                ignore (W5_os.Syscall.respond ctx body)))
  in
  ignore
    (ok_s
       (App_registry.publish (Platform.registry platform) ~dev ~name:"wall"
          ~version:"1.0" handler));
  List.iter
    (fun user -> ok_s (Platform.enable_app platform ~user ~app:"gdev/wall"))
    [ "founder"; "member"; "outsider" ];
  let get user =
    let c = Client.make ~name:user (Gateway.handler platform) in
    ignore (Client.post c "/login" ~form:[ ("user", user); ("pass", user ^ "-pw") ]);
    (c, Client.get c "/app/gdev/wall")
  in
  (* members see the group page through the group declassifier *)
  let c, r = get "member" in
  check int_c "member gets page" 200 (Response.status_code r.Response.status);
  check bool_c "content" true (Client.saw c "GROUP-SECRET");
  (* the outsider's app process lacks t+: it cannot even read *)
  let c, r = get "outsider" in
  check int_c "outsider page is an error note" 200 (Response.status_code r.Response.status);
  check bool_c "no secret" false (Client.saw c "GROUP-SECRET");
  (* removal takes effect immediately *)
  ignore (ok_s (Group.remove_member platform group ~user:"member"));
  let c, r = get "member" in
  check bool_c "removed member blocked" true
    (Response.status_code r.Response.status = 403 || not (Client.saw c "GROUP-SECRET"));
  (* the founder cannot be removed *)
  match Group.remove_member platform group ~user:"founder" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "removed the founder"

let suite =
  suite
  @ [
      Alcotest.test_case "group lifecycle" `Quick test_group_lifecycle;
      Alcotest.test_case "group export follows membership" `Quick
        test_group_export_follows_membership;
    ]

(* ---- per-app quota configuration ---- *)

let test_per_app_limits () =
  let platform = fresh_platform () in
  ignore (signup platform "alice");
  let dev = Principal.make Principal.Developer "qdev" in
  (* an app that writes a configurable number of bytes *)
  let handler ctx (env : App_registry.env) =
    let n =
      match
        int_of_string_opt
          (W5_http.Request.param_or env.App_registry.request "n" ~default:"8")
      with
      | Some n when n > 0 -> n
      | Some _ | None -> 8
    in
    match
      W5_os.Syscall.create_file ctx
        (Printf.sprintf "/apps/q-%d" (W5_os.Syscall.pid ctx))
        ~labels:Flow.bottom ~data:(String.make n 'x')
    with
    | Ok () -> ignore (W5_os.Syscall.respond ctx "wrote")
    | Error e -> ignore (W5_os.Syscall.respond ctx (W5_os.Os_error.to_string e))
  in
  ignore
    (ok_s
       (App_registry.publish (Platform.registry platform) ~dev ~name:"writer"
          ~version:"1.0" handler));
  (match Platform.enable_app platform ~user:"alice" ~app:"qdev/writer" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let alice = Client.make ~name:"alice" (Gateway.handler platform) in
  ignore (Client.post alice "/login" ~form:[ ("user", "alice"); ("pass", "alice-pw") ]);
  (* default limits: a 1KB write is fine *)
  let r = Client.get alice "/app/qdev/writer" ~params:[ ("n", "1024") ] in
  check int_c "default ok" 200 (Response.status_code r.Response.status);
  (* the provider tightens this app's disk budget *)
  Platform.set_app_limits platform ~app:"qdev/writer"
    (W5_os.Resource.make_limits ~disk:100 ());
  let r = Client.get alice "/app/qdev/writer" ~params:[ ("n", "1024") ] in
  check int_c "tightened: killed by quota" 429 (Response.status_code r.Response.status);
  let r = Client.get alice "/app/qdev/writer" ~params:[ ("n", "10") ] in
  check int_c "small write still fine" 200 (Response.status_code r.Response.status)

let suite =
  suite @ [ Alcotest.test_case "per-app limits" `Quick test_per_app_limits ]

(* ---- account and mailer coverage ---- *)

let test_account_helpers () =
  let platform = fresh_platform () in
  let account = signup platform "helper" in
  check bool_c "verify ok" true (Account.verify_password account "helper-pw");
  check bool_c "verify bad" false (Account.verify_password account "nope");
  check int_c "secrecy has one tag" 1 (Label.cardinal (Account.secrecy_labels account));
  let dl = Account.data_labels account in
  check bool_c "integrity is write tag" true
    (Label.mem account.Account.write_tag dl.Flow.integrity);
  let rt = Platform.enable_read_protection platform account in
  check int_c "secrecy now two tags" 2 (Label.cardinal (Account.secrecy_labels account));
  check bool_c "owns read tag" true (Account.owns_tag account rt);
  check bool_c "pp renders" true
    (String.length (Format.asprintf "%a" Account.pp account) > 0)

let test_mailer_outbox_order_and_missing_user () =
  let platform = fresh_platform () in
  ignore (signup platform "reader");
  let dev = Principal.make Principal.Developer "md" in
  let n = ref 0 in
  let handler ctx (_ : App_registry.env) =
    incr n;
    ignore (W5_os.Syscall.respond ctx (Printf.sprintf "issue-%d" !n))
  in
  ignore
    (ok_s
       (App_registry.publish (Platform.registry platform) ~dev ~name:"zine"
          ~version:"1.0" handler));
  ignore (ok_s (Platform.enable_app platform ~user:"reader" ~app:"md/zine"));
  ignore (ok_s (Mailer.deliver_app_page platform ~user:"reader" ~app:"md/zine" ~subject:"1" ()));
  ignore (ok_s (Mailer.deliver_app_page platform ~user:"reader" ~app:"md/zine" ~subject:"2" ()));
  (match Mailer.outbox platform ~user:"reader" with
  | [ first; second ] ->
      check string_c "oldest first" "1" first.Mailer.subject;
      check string_c "then newer" "2" second.Mailer.subject
  | _ -> Alcotest.fail "expected two emails");
  match Mailer.deliver_app_page platform ~user:"ghost" ~app:"md/zine" ~subject:"x" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mailed a ghost"

let test_invite_decline () =
  let platform = fresh_platform () in
  ignore (signup platform "host");
  ignore (signup platform "guest");
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  let registry = Invite.create_registry () in
  let invite =
    ok_s (Invite.send registry platform ~from_user:"host" ~to_user:"guest" ~app:"d/social" ())
  in
  (* only the invitee can decline *)
  (match Invite.decline registry ~invite_id:invite.Invite.invite_id ~to_user:"host" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong user declined");
  ignore (ok_s (Invite.decline registry ~invite_id:invite.Invite.invite_id ~to_user:"guest"));
  check int_c "gone" 0 (List.length (Invite.pending registry ~to_user:"guest"));
  (* declining frees the slot for a fresh invitation *)
  ignore
    (ok_s (Invite.send registry platform ~from_user:"host" ~to_user:"guest" ~app:"d/social" ()))

let test_admin_suspicious_threshold () =
  let report =
    {
      Admin.users = 0; apps = 1; requests_served = 0; live_processes = 0;
      total_processes_spawned = 0; audit_entries = 0; audit_evicted = 0;
      total_denials = 2; export_denials = 2; sessions_active = 0; files = 0;
      per_app =
        [ { Admin.app_id = "x/y"; installs = 0; denials = 2; quota_kills = 0 } ];
    }
  in
  check (Alcotest.list string_c) "below default threshold" []
    (Admin.suspicious_apps report);
  check (Alcotest.list string_c) "custom threshold" [ "x/y" ]
    (Admin.suspicious_apps ~threshold:2 report)

let suite =
  suite
  @ [
      Alcotest.test_case "account helpers" `Quick test_account_helpers;
      Alcotest.test_case "mailer outbox order" `Quick
        test_mailer_outbox_order_and_missing_user;
      Alcotest.test_case "invite decline" `Quick test_invite_decline;
      Alcotest.test_case "admin suspicious threshold" `Quick
        test_admin_suspicious_threshold;
    ]

(* ---- group management over HTTP ---- *)

let test_group_routes () =
  let platform = fresh_platform () in
  ignore (signup platform "founder");
  ignore (signup platform "member");
  ignore (signup platform "mallory");
  let login name =
    let c = Client.make ~name (Gateway.handler platform) in
    ignore (Client.post c "/login" ~form:[ ("user", name); ("pass", name ^ "-pw") ]);
    c
  in
  let founder = login "founder" in
  let r = Client.post founder "/group_create" ~form:[ ("name", "chess") ] in
  check int_c "create" 200 (Response.status_code r.Response.status);
  let r = Client.post founder "/group_add" ~form:[ ("name", "chess"); ("user", "member") ] in
  check int_c "add member" 200 (Response.status_code r.Response.status);
  (match Group.find platform ~name:"chess" with
  | Some group ->
      check bool_c "member joined" true (Group.is_member group ~user:"member")
  | None -> Alcotest.fail "group lost");
  (* only the founder manages membership *)
  let mallory = login "mallory" in
  let r = Client.post mallory "/group_add" ~form:[ ("name", "chess"); ("user", "mallory") ] in
  check int_c "non-founder refused" 403 (Response.status_code r.Response.status);
  (* removal over HTTP *)
  let r = Client.post founder "/group_remove" ~form:[ ("name", "chess"); ("user", "member") ] in
  check int_c "remove" 200 (Response.status_code r.Response.status);
  (match Group.find platform ~name:"chess" with
  | Some group ->
      check bool_c "member gone" false (Group.is_member group ~user:"member")
  | None -> Alcotest.fail "group lost");
  (* duplicate create rejected *)
  let r = Client.post founder "/group_create" ~form:[ ("name", "chess") ] in
  check int_c "duplicate" 400 (Response.status_code r.Response.status)

let suite =
  suite @ [ Alcotest.test_case "group routes" `Quick test_group_routes ]

(* ---- declassifier gate robustness ---- *)

let test_gate_garbage_arg_refuses () =
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  let gate =
    Declassifier.install platform ~account:alice ~name:"open" Declassifier.everyone
  in
  (* a malformed frame decodes to None, and the gate invoked with it
     through the kernel refuses cleanly *)
  List.iter
    (fun arg ->
      check bool_c (Printf.sprintf "%S decodes to None" arg) true
        (Declassifier.decode_arg arg = None);
      let result =
        Platform.with_ctx platform ~name:"caller"
          ~labels:
            (Flow.make ~secrecy:(Label.singleton alice.Account.secret_tag) ())
          (fun ctx -> W5_os.Syscall.invoke_gate ctx gate ~arg)
      in
      match result with
      | Ok None -> () (* no response = refusal *)
      | Ok (Some _) -> Alcotest.failf "gate answered %S" arg
      | Error e ->
          Alcotest.failf "gate crashed on %S: %s" arg
            (W5_os.Os_error.to_string e))
    [
      "%%garbage%%"; "no equals sign"; ""; ":"; "x:abc"; "-1:a"; "+1:a";
      "0x1:a"; "1_0:a"; "5:ab"; "99999999999999999999:a";
    ];
  check bool_c "empty frame is anonymous and empty" true
    (Declassifier.decode_arg "0:" = Some (None, ""))

let suite =
  suite
  @ [
      Alcotest.test_case "gate garbage arg refuses" `Quick
        test_gate_garbage_arg_refuses;
    ]

(* ---- group post overwrite + invite defaults ---- *)

let test_group_post_overwrite () =
  let platform = fresh_platform () in
  let founder = signup platform "gF" in
  let group = ok_s (Group.create platform ~founder ~name:"edit-test") in
  ignore (ok_os (Group.post platform group ~author:founder ~id:"p" ~body:"v1"));
  ignore (ok_os (Group.post platform group ~author:founder ~id:"p" ~body:"v2"));
  let posts = ok_os (Group.read_posts platform group ~reader:founder) in
  check int_c "still one post" 1 (List.length posts);
  check bool_c "latest body" true
    (let _, line = List.hd posts in
     String.length line >= 2 && String.sub line (String.length line - 2) 2 = "v2")

let test_invite_without_write_suggestion () =
  let platform = fresh_platform () in
  ignore (signup platform "host");
  let guest = signup platform "guest" in
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  let registry = Invite.create_registry () in
  let invite =
    ok_s
      (Invite.send registry platform ~from_user:"host" ~to_user:"guest"
         ~app:"d/social" ())
  in
  ignore (ok_s (Invite.accept registry platform ~invite_id:invite.Invite.invite_id ~to_user:"guest"));
  check bool_c "enabled" true (Policy.app_enabled guest.Account.policy "d/social");
  check bool_c "no write without suggestion" false
    (Policy.write_delegated guest.Account.policy "d/social")

let suite =
  suite
  @ [
      Alcotest.test_case "group post overwrite" `Quick test_group_post_overwrite;
      Alcotest.test_case "invite without write suggestion" `Quick
        test_invite_without_write_suggestion;
    ]

let test_signup_name_hygiene () =
  let platform = fresh_platform () in
  List.iter
    (fun bad ->
      match Platform.signup platform ~user:bad ~password:"x" with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ ""; "a b"; "semi;colon"; "dot.dot"; "q?m"; "tab\tname" ];
  List.iter
    (fun good ->
      match Platform.signup platform ~user:good ~password:"x" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rejected %S: %s" good e)
    [ "alice"; "Bob-2"; "under_score"; "X" ]

let test_mailer_requires_enabled_app () =
  let platform = fresh_platform () in
  ignore (signup platform "quiet");
  let dev = Principal.make Principal.Developer "md2" in
  ignore
    (ok_s
       (App_registry.publish (Platform.registry platform) ~dev ~name:"letter"
          ~version:"1.0" dummy_handler));
  match Mailer.deliver_app_page platform ~user:"quiet" ~app:"md2/letter" ~subject:"s" () with
  | Error _ -> check int_c "nothing queued" 0 (Mailer.outbox_size platform ~user:"quiet")
  | Ok _ -> Alcotest.fail "mailed an app the user never enabled"

(* A digest goes down the gateway's one request path: like a browser
   request it gets a request span and is counted, and the outbox holds
   the page the app rendered. *)
let test_mailer_digest_is_a_gateway_request () =
  let platform = fresh_platform () in
  ignore (signup platform "reader");
  let dev = Principal.make Principal.Developer "md3" in
  ignore
    (ok_s
       (App_registry.publish (Platform.registry platform) ~dev ~name:"zine"
          ~version:"1.0" dummy_handler));
  ignore (ok_s (Platform.enable_app platform ~user:"reader" ~app:"md3/zine"));
  let kernel = Platform.kernel platform in
  let tracer = W5_os.Kernel.tracer kernel in
  W5_obs.Tracer.set_enabled tracer true;
  let requests =
    W5_obs.Metrics.counter (W5_os.Kernel.metrics kernel)
      "w5_gateway_requests_total"
  in
  let served () =
    W5_obs.Metrics.value requests
      ~labels:[ ("route", "app:md3/zine"); ("status", "200") ]
  in
  let before = served () in
  let stats = Mailer.run_digests platform ~app:"md3/zine" ~subject:"weekly" () in
  check int_c "delivered" 1 stats.Mailer.delivered;
  check (Alcotest.list string_c) "one request root" [ "gateway:app:md3/zine" ]
    (List.map
       (fun (span : W5_obs.Span.t) -> span.W5_obs.Span.span_name)
       (W5_obs.Tracer.traces tracer));
  check int_c "counted as a request" (before + 1) (served ());
  match Mailer.outbox platform ~user:"reader" with
  | [ email ] ->
      check string_c "to" "reader" email.Mailer.to_user;
      check string_c "subject" "weekly" email.Mailer.subject;
      check string_c "body" "dummy" email.Mailer.body
  | mail -> Alcotest.failf "expected one email, got %d" (List.length mail)

let suite =
  suite
  @ [
      Alcotest.test_case "signup name hygiene" `Quick test_signup_name_hygiene;
      Alcotest.test_case "mailer requires enabled app" `Quick
        test_mailer_requires_enabled_app;
      Alcotest.test_case "mailer digest is a gateway request" `Quick
        test_mailer_digest_is_a_gateway_request;
    ]

let test_stale_gate_cannot_clear_new_read_tag () =
  (* the documented property: gates installed before read protection
     cannot clear the new tag — no silent privilege growth *)
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  let viewer = signup platform "viewer" in
  ignore
    (Declassifier.install_and_authorize platform ~account:alice ~name:"open"
       Declassifier.everyone);
  let rt = Platform.enable_read_protection platform alice in
  (* authorize the old gate for the new tag too (policy says yes, but
     the gate lacks the capability) *)
  Policy.authorize_declassifier alice.Account.policy ~tag:rt
    ~gate:(Declassifier.gate_name ~owner:"alice" ~name:"open");
  let labels =
    Flow.make ~secrecy:(Label.of_list [ alice.Account.secret_tag; rt ]) ()
  in
  (match Perimeter.export platform ~viewer:(Some viewer) ~data:"d" ~labels () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale gate cleared a tag it has no capability for");
  (* reinstalling fixes it *)
  ignore
    (Declassifier.install_and_authorize platform ~account:alice ~name:"open"
       Declassifier.everyone);
  match Perimeter.export platform ~viewer:(Some viewer) ~data:"d" ~labels () with
  | Ok out -> check string_c "fresh gate works" "d" out
  | Error r -> Alcotest.failf "refused: %s" (Perimeter.refusal_to_string r)

let suite =
  suite
  @ [
      Alcotest.test_case "stale gate cannot clear new read tag" `Quick
        test_stale_gate_cannot_clear_new_read_tag;
    ]

(* ---- admission capability set ---- *)

(* Reference for [Platform.app_caps_for]: the read half folds over
   every account instead of the platform's read-protected list. *)
let app_caps_ref platform ~viewer ~app =
  let caps =
    match viewer with
    | Some (account : Account.t)
      when Policy.write_delegated account.Account.policy app ->
        Capability.Set.add
          (Capability.make account.Account.write_tag Capability.Plus)
          Capability.Set.empty
    | Some _ | None -> Capability.Set.empty
  in
  List.fold_left
    (fun caps (account : Account.t) ->
      match account.Account.read_tag with
      | Some rt when Policy.read_granted account.Account.policy app ->
          Capability.Set.add (Capability.make rt Capability.Plus) caps
      | Some _ | None -> caps)
    caps (Platform.accounts platform)

type caps_op =
  | Signup of int
  | Protect of int
  | Grant_read of int * int
  | Revoke_read of int * int
  | Delegate_write of int * int
  | Revoke_write of int * int

let caps_op_name = function
  | Signup u -> Printf.sprintf "signup u%d" u
  | Protect u -> Printf.sprintf "protect u%d" u
  | Grant_read (u, a) -> Printf.sprintf "grant_read u%d a%d" u a
  | Revoke_read (u, a) -> Printf.sprintf "revoke_read u%d a%d" u a
  | Delegate_write (u, a) -> Printf.sprintf "delegate_write u%d a%d" u a
  | Revoke_write (u, a) -> Printf.sprintf "revoke_write u%d a%d" u a

let gen_caps_op =
  QCheck.Gen.(
    let user = 0 -- 7 and app = 0 -- 2 in
    frequency
      [
        (3, map (fun u -> Signup u) user);
        (2, map (fun u -> Protect u) user);
        (3, map2 (fun u a -> Grant_read (u, a)) user app);
        (2, map2 (fun u a -> Revoke_read (u, a)) user app);
        (2, map2 (fun u a -> Delegate_write (u, a)) user app);
        (1, map2 (fun u a -> Revoke_write (u, a)) user app);
      ])

(* After every operation, for every viewer (anonymous and each
   account) and every app, the capability set equals the reference
   fold, and the read-protected list holds exactly the accounts with a
   read tag, each once. *)
let prop_app_caps_match_full_scan =
  let apps = [ "d/a0"; "d/a1"; "d/a2" ] in
  QCheck.Test.make ~name:"app_caps_for equals the fold over every account"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map caps_op_name ops))
       QCheck.Gen.(list_size (1 -- 30) gen_caps_op))
    (fun ops ->
      let platform = fresh_platform () in
      let user u = Printf.sprintf "u%d" u in
      let with_account u f =
        Option.iter f (Platform.find_account platform (user u))
      in
      let policy f u = with_account u (fun a -> f a.Account.policy) in
      let app a = List.nth apps a in
      let apply = function
        | Signup u ->
            ignore (Platform.signup platform ~user:(user u) ~password:"pw")
        | Protect u ->
            with_account u (fun a ->
                ignore (Platform.enable_read_protection platform a))
        | Grant_read (u, a) -> policy (fun p -> Policy.grant_read p (app a)) u
        | Revoke_read (u, a) -> policy (fun p -> Policy.revoke_read p (app a)) u
        | Delegate_write (u, a) ->
            policy (fun p -> Policy.delegate_write p (app a)) u
        | Revoke_write (u, a) ->
            policy (fun p -> Policy.revoke_write p (app a)) u
      in
      let agrees () =
        let accounts = Platform.accounts platform in
        let names l = List.map (fun (a : Account.t) -> a.Account.user) l in
        names
          (List.filter
             (fun (a : Account.t) -> a.Account.read_tag <> None)
             accounts)
        = List.sort compare (names (Platform.read_protected platform))
        && List.for_all
             (fun viewer ->
               List.for_all
                 (fun app ->
                   Capability.Set.equal
                     (Platform.app_caps_for platform ~viewer ~app)
                     (app_caps_ref platform ~viewer ~app))
                 apps)
             (None :: List.map Option.some accounts)
      in
      List.for_all
        (fun op ->
          apply op;
          agrees ())
        ops)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_app_caps_match_full_scan ]

let test_platform_getters () =
  let platform = fresh_platform () in
  check (Alcotest.list string_c) "no vetted" [] (Platform.vetted_apps platform);
  Platform.add_vetted platform "a/b";
  Platform.add_vetted platform "a/b";
  check (Alcotest.list string_c) "dedup vetted" [ "a/b" ]
    (Platform.vetted_apps platform);
  check bool_c "no dns" true (Platform.dns platform = None);
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  let dns = Platform.enable_dns platform ~zone:"z.example" in
  check bool_c "dns attached" true (Platform.dns platform <> None);
  (* the published app got a record *)
  check bool_c "record exists" true
    (W5_http.Dns.resolve dns ~host:"social.d.z.example"
    = Some (W5_http.Dns.App "d/social"));
  check bool_c "records listed" true (List.length (W5_http.Dns.records dns) >= 3)

let suite =
  suite @ [ Alcotest.test_case "platform getters" `Quick test_platform_getters ]

let test_admin_quota_kill_attribution () =
  let platform = fresh_platform () in
  ignore (signup platform "runner");
  let dev = Principal.make Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev);
  (match Platform.enable_app platform ~user:"runner" ~app:"mal/hog" with
  | Ok () -> () | Error e -> Alcotest.fail e);
  let c = Client.make ~name:"runner" (Gateway.handler platform) in
  ignore (Client.post c "/login" ~form:[ ("user", "runner"); ("pass", "runner-pw") ]);
  ignore (Client.get c "/app/mal/hog");
  let report = Admin.collect platform in
  let hog = List.find (fun s -> s.Admin.app_id = "mal/hog") report.Admin.per_app in
  check bool_c "kill attributed" true (hog.Admin.quota_kills >= 1)

let test_account_exn_raises () =
  let platform = fresh_platform () in
  match Platform.account_exn platform "ghost" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_expire_sessions_return () =
  let platform = fresh_platform () in
  ignore (signup platform "u1");
  ignore (ok_s (Platform.login platform ~user:"u1" ~password:"u1-pw"));
  check int_c "one active" 1 (W5_http.Session.active (Platform.sessions platform));
  (* huge max_age keeps it *)
  check int_c "kept" 1 (Platform.expire_sessions platform ~max_age:1_000_000);
  (* advance the clock, then expire aggressively *)
  ignore
    (Platform.with_ctx platform ~name:"tick" (fun ctx ->
         ignore (W5_os.Syscall.file_exists ctx "/");
         Ok ()));
  check int_c "dropped" 0 (Platform.expire_sessions platform ~max_age:0)

(* A platform context ends through the kernel like any process: the
   kill is booked after the body's own audit entries, counted, and
   returned as an error, and no body is left on the run queue. *)
let test_with_ctx_ends_through_kernel () =
  let platform = fresh_platform () in
  let kernel = Platform.kernel platform in
  let log = W5_os.Kernel.audit kernel in
  let queued = W5_os.Kernel.pending_count kernel in
  let kinds_since mark =
    List.filteri (fun i _ -> i >= mark) (W5_os.Audit.entries log)
    |> List.map (fun e -> W5_os.Audit.event_kind e.W5_os.Audit.event)
  in
  let mark = W5_os.Audit.length log in
  (match
     Platform.with_ctx platform ~name:"spin"
       ~limits:(W5_os.Resource.make_limits ~cpu:2 ())
       (fun ctx ->
         let rec loop () =
           ignore (W5_os.Syscall.debug_note ctx "tick");
           loop ()
         in
         loop ())
   with
  | Error (W5_os.Os_error.Quota_exceeded W5_os.Resource.Cpu) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a cpu quota kill");
  check
    (Alcotest.list string_c)
    "kill booked after the body's notes"
    [ "spawned"; "app_note"; "app_note"; "quota_hit"; "killed" ]
    (kinds_since mark);
  check int_c "kill counted" 1
    (W5_obs.Metrics.value
       (W5_os.Kernel.meters kernel).W5_os.Kernel.quota_kills
       ~labels:[ ("kind", "cpu") ]);
  let mark = W5_os.Audit.length log in
  (match Platform.with_ctx platform ~name:"crash" (fun _ -> failwith "boom") with
  | Error (W5_os.Os_error.Invalid _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected an uncaught-exception error");
  check
    (Alcotest.list string_c)
    "crash booked" [ "spawned"; "killed" ] (kinds_since mark);
  check int_c "nothing queued" queued (W5_os.Kernel.pending_count kernel)

let suite =
  suite
  @ [
      Alcotest.test_case "with_ctx ends through the kernel" `Quick
        test_with_ctx_ends_through_kernel;
      Alcotest.test_case "admin quota-kill attribution" `Quick
        test_admin_quota_kill_attribution;
      Alcotest.test_case "account_exn raises" `Quick test_account_exn_raises;
      Alcotest.test_case "expire_sessions return" `Quick
        test_expire_sessions_return;
    ]

(* ---- per-kernel platform state dies with its platform ---- *)

let login_client platform name =
  let c = Client.make ~name (Gateway.handler platform) in
  ignore (Client.post c "/login" ~form:[ ("user", name); ("pass", name ^ "-pw") ]);
  c

(* Fill every per-kernel table of one platform — a group, an invite,
   outbox mail, SLO routes, a store index and a thumbnail worker —
   check that a second platform sees none of it, and leave only a weak
   pointer to the first platform's kernel. *)
let[@inline never] build_busy_platform weak =
  let platform = fresh_platform () in
  let dev = Principal.make Principal.Developer "d" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev));
  ignore (ok_s (W5_apps.Blog_app.publish platform ~dev));
  let host = signup platform "host" and guest = signup platform "guest" in
  List.iter
    (fun (a : Account.t) ->
      List.iter
        (fun app ->
          ok_s (Platform.enable_app platform ~user:a.Account.user ~app);
          Policy.delegate_write a.Account.policy app)
        [ "d/social"; "d/blog" ])
    [ host; guest ];
  ignore (ok_s (Group.create platform ~founder:host ~name:"club"));
  let hc = login_client platform "host" in
  let r = Client.post hc "/invite" ~form:[ ("to", "guest"); ("app", "d/social") ] in
  check int_c "invite sent" 200 (Response.status_code r.Response.status);
  ignore
    (Client.post hc "/app/d/blog"
       ~form:[ ("action", "post"); ("id", "e"); ("title", "T"); ("body", "B") ]);
  let r =
    Client.post (login_client platform "guest") "/app/d/blog"
      ~form:[ ("action", "comment"); ("user", "host"); ("id", "e"); ("text", "hi") ]
  in
  check int_c "comment posted" 200 (Response.status_code r.Response.status);
  ignore
    (ok_s (Mailer.deliver_app_page platform ~user:"host" ~app:"d/social" ~subject:"s" ()));
  ignore (ok_os (W5_apps.Thumb_service.install platform ~user:"host"));
  let slo_routes p =
    List.length (W5_obs.Health.Slo.report (Gateway.slo_of p) ~now:0)
  in
  check bool_c "first platform has SLO routes" true (slo_routes platform > 0);
  let other = fresh_platform () in
  check int_c "no groups" 0 (List.length (Group.all other));
  check int_c "no outbox mail" 0 (Mailer.outbox_size other ~user:"host");
  check int_c "no SLO routes" 0 (slo_routes other);
  ignore (signup other "guest");
  let oc = login_client other "guest" in
  ignore (Client.get oc "/invites");
  check bool_c "no invites" false (Client.saw oc "host invites you");
  Weak.set weak 0 (Some (Platform.kernel platform))

let test_platform_state_freed_with_kernel () =
  let weak = Weak.create 1 in
  build_busy_platform weak;
  Gc.full_major ();
  Gc.full_major ();
  check bool_c "kernel collected" false (Weak.check weak 0)

let suite =
  suite
  @ [
      Alcotest.test_case "per-kernel state freed with its platform" `Quick
        test_platform_state_freed_with_kernel;
    ]

(* ---- the gate argument round-trips ---- *)

(* Strings rich in the bytes a codec could trip on: the record
   escapes, and the frame's digits and colon. *)
let gen_wire_string size =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneofl
           [ '%'; '='; '\n'; 'a'; ' '; ':'; '0'; '1'; '2'; '3'; '4'; '5'; '6';
             '7'; '8'; '9' ])
      size)

let prop_gate_arg_round_trip =
  QCheck.Test.make ~name:"decode_arg inverts encode_arg" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (option string) string)
       QCheck.Gen.(pair (opt (gen_wire_string (1 -- 12))) (gen_wire_string (0 -- 40))))
    (fun (viewer, data) ->
      Declassifier.decode_arg (Declassifier.encode_arg ~viewer ~data)
      = Some (viewer, data))

(* A gate must survive any argument a caller sends: decoding never
   raises, and a decoded viewer and payload are exactly the bytes after
   the frame's colon. *)
let prop_gate_arg_total =
  QCheck.Test.make ~name:"decode_arg is total on arbitrary frames" ~count:300
    (QCheck.make ~print:QCheck.Print.string (gen_wire_string QCheck.Gen.(0 -- 30)))
    (fun arg ->
      match Declassifier.decode_arg arg with
      | None -> true
      | Some (viewer, data) ->
          let body = Option.value viewer ~default:"" ^ data in
          let n = String.length arg and m = String.length body in
          m < n
          && String.sub arg (n - m) m = body
          && arg.[n - m - 1] = ':')

(* A friend's view of a page made of the bytes both codecs treat
   specially comes back byte-identical through the perimeter, once
   through friends_only and once through a group gate. *)
let awkward_page =
  String.concat ""
    (List.init 1200 (fun i -> Printf.sprintf "%d:%%25=%%\n:" i))

let test_awkward_page_through_gates () =
  check bool_c "page is about 12 KB" true (String.length awkward_page >= 12_000);
  let platform = fresh_platform () in
  let alice = signup platform "alice" in
  let bob = signup platform "bob" in
  ignore
    (ok_os
       (Platform.write_user_record platform alice ~file:"friends"
          (W5_store.Record.of_fields [ ("friends", "bob") ])));
  ignore
    (Declassifier.install_and_authorize platform ~account:alice ~name:"friends"
       Declassifier.friends_only);
  let export labels =
    match
      Perimeter.export platform ~viewer:(Some bob) ~data:awkward_page ~labels ()
    with
    | Ok out -> out
    | Error r -> Alcotest.failf "refused: %s" (Perimeter.refusal_to_string r)
  in
  check string_c "through friends_only" awkward_page
    (export (Flow.make ~secrecy:(Label.singleton alice.Account.secret_tag) ()));
  let group = ok_s (Group.create platform ~founder:alice ~name:"awkward") in
  ignore (ok_s (Group.add_member platform group ~user:"bob"));
  check string_c "through the group gate" awkward_page
    (export (Flow.make ~secrecy:(Label.singleton (Group.tag group)) ()))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_gate_arg_round_trip;
      QCheck_alcotest.to_alcotest prop_gate_arg_total;
      Alcotest.test_case "awkward page through gates" `Quick
        test_awkward_page_through_gates;
    ]
