(* Tests for the paper's example applications (E10/E12) and the
   adversarial battery (E1/E3/E7), all exercised end-to-end through
   the HTTP gateway. *)

open W5_difc
open W5_http
open W5_platform

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let ok_s = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let status (r : Response.t) = Response.status_code r.Response.status

(* A fully loaded world: all example apps and modules published. *)
type world = {
  platform : Platform.t;
  core_dev : Principal.t;
}

let make_world () =
  let platform = Platform.create () in
  let core_dev = Principal.make Principal.Developer "core" in
  let dev_a = Principal.make Principal.Developer "devA" in
  let dev_b = Principal.make Principal.Developer "devB" in
  let gmaps = Principal.make Principal.Developer "gmaps" in
  let gmaps_evil = Principal.make Principal.Developer "gmaps-evil" in
  ignore (ok_s (W5_apps.Social_app.publish platform ~dev:core_dev));
  ignore (ok_s (W5_apps.Photo_app.publish platform ~dev:core_dev));
  ignore (ok_s (W5_apps.Blog_app.publish platform ~dev:core_dev));
  ignore (ok_s (W5_apps.Recommend_app.publish platform ~dev:core_dev));
  ignore (ok_s (W5_apps.Dating_app.publish platform ~dev:core_dev));
  ignore (ok_s (W5_apps.Chameleon_app.publish platform ~dev:core_dev));
  ignore (ok_s (W5_apps.Mashup_app.publish platform ~dev:core_dev));
  ignore
    (ok_s (W5_apps.Photo_app.publish_crop_module platform ~dev:dev_a ~name:"crop" ~style:`Head));
  ignore
    (ok_s (W5_apps.Photo_app.publish_crop_module platform ~dev:dev_b ~name:"crop" ~style:`Frame));
  ignore
    (ok_s (W5_apps.Mashup_app.publish_map_module platform ~dev:gmaps ~name:"render" ~evil:false));
  ignore
    (ok_s
       (W5_apps.Mashup_app.publish_map_module platform ~dev:gmaps_evil ~name:"render" ~evil:true));
  ignore (W5_apps.Malicious.publish_all platform ~dev:(Principal.make Principal.Developer "mal"));
  { platform; core_dev }

let all_apps =
  [
    "core/social"; "core/photos"; "core/blog"; "core/recommend"; "core/dating";
    "core/chameleon"; "core/mashup"; "devA/crop"; "devB/crop"; "gmaps/render";
    "gmaps-evil/render"; "mal/thief"; "mal/vandal"; "mal/hog"; "mal/spammer";
    "mal/hoarder"; "mal/prober";
  ]

let add_user world name =
  let account = ok_s (Platform.signup world.platform ~user:name ~password:(name ^ "-pw")) in
  List.iter
    (fun app ->
      ok_s (Platform.enable_app world.platform ~user:name ~app);
      Policy.delegate_write account.Account.policy app)
    all_apps;
  account

let login world name =
  let client = Client.make ~name (Gateway.handler world.platform) in
  let r = Client.post client "/login" ~form:[ ("user", name); ("pass", name ^ "-pw") ] in
  check bool_c (name ^ " login") true (Response.is_success r);
  client

let befriend world ~who ~friend_name =
  let c = login world who in
  let r =
    Client.post c "/app/core/social"
      ~form:[ ("action", "add_friend"); ("friend", friend_name) ]
  in
  check int_c (who ^ " befriends " ^ friend_name) 200 (status r);
  check bool_c "confirmation" true (Client.saw c ("now friends with " ^ friend_name))

let install_friends_declassifier world name =
  let account = Platform.account_exn world.platform name in
  ignore
    (Declassifier.install_and_authorize world.platform ~account ~name:"friends"
       Declassifier.friends_only)

(* ---- photos + crop modules ---- *)

let test_photo_upload_and_view () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = login world "alice" in
  let r =
    Client.post alice "/app/core/photos"
      ~form:[ ("action", "upload"); ("id", "sunset"); ("data", "RAWPIXELDATA") ]
  in
  check int_c "upload" 200 (status r);
  let r =
    Client.get alice "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "alice"); ("id", "sunset") ]
  in
  check int_c "view" 200 (status r);
  check bool_c "raw data shown (no module chosen)" true
    (Client.saw alice "RAWPIXELDATA");
  let r = Client.get alice "/app/core/photos" ~params:[ ("action", "list") ] in
  check int_c "list" 200 (status r);
  check bool_c "listed" true (Client.saw alice "sunset")

let test_photo_crop_module_choice () =
  let world = make_world () in
  let account = add_user world "bob" in
  let bob = login world "bob" in
  ignore
    (Client.post bob "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "p"); ("data", "ABCDEFGHIJKL") ]);
  (* choose developer A's cropper: head crop *)
  Policy.choose_module account.Account.policy ~slot:"photo.crop" ~module_id:"devA/crop";
  let r =
    Client.get bob "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "bob"); ("id", "p"); ("size", "4") ]
  in
  check int_c "view A" 200 (status r);
  check bool_c "head crop" true (Client.saw bob "ABCD");
  check bool_c "not full" false (Client.saw bob "ABCDEFGHIJKL");
  (* switch to developer B's framing module *)
  Policy.choose_module account.Account.policy ~slot:"photo.crop" ~module_id:"devB/crop";
  let r =
    Client.get bob "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "bob"); ("id", "p") ]
  in
  check int_c "view B" 200 (status r);
  check bool_c "framed" true (Client.saw bob "[[ABCDEFGHIJKL]]")

let test_photo_requires_write_delegation () =
  let world = make_world () in
  let account = add_user world "carol" in
  Policy.revoke_write account.Account.policy "core/photos";
  let carol = login world "carol" in
  let r =
    Client.post carol "/app/core/photos"
      ~form:[ ("action", "upload"); ("id", "x"); ("data", "d") ]
  in
  check int_c "still 200 (error page)" 200 (status r);
  check bool_c "refused politely" true (Client.saw carol "write not delegated")

let test_photo_cross_user_via_declassifier () =
  let world = make_world () in
  ignore (add_user world "alice");
  ignore (add_user world "bob");
  let alice = login world "alice" in
  ignore
    (Client.post alice "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "priv"); ("data", "ALICEPIXELS") ]);
  befriend world ~who:"alice" ~friend_name:"bob";
  install_friends_declassifier world "alice";
  let bob = login world "bob" in
  let r =
    Client.get bob "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "alice"); ("id", "priv") ]
  in
  check int_c "friend sees photo" 200 (status r);
  check bool_c "pixels" true (Client.saw bob "ALICEPIXELS");
  (* the same declassifier covers the blog app: data-structure
     agnosticism (§3.1) *)
  ignore
    (Client.post alice "/app/core/blog"
       ~form:
         [ ("action", "post"); ("id", "e1"); ("title", "Hi"); ("body", "ALICEWORDS") ]);
  let r = Client.get bob "/app/core/blog" ~params:[ ("action", "read"); ("user", "alice") ] in
  check int_c "friend reads blog" 200 (status r);
  check bool_c "words" true (Client.saw bob "ALICEWORDS")

(* ---- blog ---- *)

let test_blog_roundtrip () =
  let world = make_world () in
  ignore (add_user world "wri");
  let c = login world "wri" in
  List.iter
    (fun (id, title, body) ->
      let r =
        Client.post c "/app/core/blog"
          ~form:[ ("action", "post"); ("id", id); ("title", title); ("body", body) ]
      in
      check int_c ("post " ^ id) 200 (status r))
    [ ("a", "First", "hello world"); ("b", "Second", "more words") ];
  let r = Client.get c "/app/core/blog" ~params:[ ("action", "read"); ("user", "wri") ] in
  check int_c "read all" 200 (status r);
  check bool_c "first" true (Client.saw c "hello world");
  check bool_c "second" true (Client.saw c "more words");
  let r =
    Client.get c "/app/core/blog"
      ~params:[ ("action", "read"); ("user", "wri"); ("id", "a") ]
  in
  check int_c "read one" 200 (status r)

(* ---- recommendation engine ---- *)

let test_recommendation_digest () =
  let world = make_world () in
  ignore (add_user world "bob");
  ignore (add_user world "f1");
  ignore (add_user world "f2");
  (* friends post content *)
  List.iter
    (fun (who, id, body) ->
      let c = login world who in
      ignore
        (Client.post c "/app/core/blog"
           ~form:[ ("action", "post"); ("id", id); ("title", id); ("body", body) ]))
    [
      ("f1", "long", String.make 80 'x');
      ("f1", "short", "tiny");
      ("f2", "mid", String.make 40 'y');
    ];
  (* friendship is directional: bob's list drives what the engine
     scans; f1/f2's lists drive what their declassifiers export *)
  befriend world ~who:"bob" ~friend_name:"f1";
  befriend world ~who:"bob" ~friend_name:"f2";
  befriend world ~who:"f1" ~friend_name:"bob";
  befriend world ~who:"f2" ~friend_name:"bob";
  install_friends_declassifier world "f1";
  install_friends_declassifier world "f2";
  let bob = login world "bob" in
  let r = Client.get bob "/app/core/recommend" ~params:[ ("k", "2") ] in
  check int_c "digest" 200 (status r);
  check bool_c "top item is the long post" true (Client.saw bob "f1/long");
  check bool_c "runner-up" true (Client.saw bob "f2/mid");
  check bool_c "k respected" false (Client.saw bob "f1/short");
  (* a stranger cannot pull bob's digest of f1/f2 content: the
     declassifiers refuse — unless they also friend the stranger *)
  ignore (add_user world "stranger");
  befriend world ~who:"stranger" ~friend_name:"f1";
  let stranger = login world "stranger" in
  let r = Client.get stranger "/app/core/recommend" ~params:[ ("k", "2") ] in
  (* stranger's own friends list includes f1, so the digest contains
     f1's data; f1's declassifier approves only f1's friends, and f1
     never befriended the stranger *)
  check int_c "stranger blocked" 403 (status r)

(* ---- dating ---- *)

let test_dating_matchmaker () =
  let world = make_world () in
  ignore (add_user world "bob");
  List.iter
    (fun (name, interests) ->
      let account = add_user world name in
      ignore account;
      let c = login world name in
      ignore
        (Client.post c "/app/core/social"
           ~form:
             [ ("action", "set_profile"); ("field", "interests"); ("value", interests) ]);
      (* daters opt into a dating-wide export group *)
      let account = Platform.account_exn world.platform name in
      ignore
        (Declassifier.install_and_authorize world.platform ~account ~name:"daters"
           (Declassifier.group ~members:[ "bob"; "cand1"; "cand2"; "cand3" ])))
    [
      ("cand1", "scifi,jazz,climbing");
      ("cand2", "jazz");
      ("cand3", "opera");
    ];
  let bob = login world "bob" in
  let r =
    Client.post bob "/app/core/dating"
      ~form:[ ("action", "set_metric"); ("metric", "scifi:5,jazz:2") ]
  in
  check int_c "metric saved" 200 (status r);
  let r = Client.get bob "/app/core/dating" ~params:[ ("action", "match"); ("k", "2") ] in
  check int_c "match" 200 (status r);
  check bool_c "best match" true (Client.saw bob "cand1 (score 7)");
  check bool_c "second" true (Client.saw bob "cand2 (score 2)");
  check bool_c "opera fan filtered by k" false (Client.saw bob "cand3")

let test_dating_needs_metric () =
  let world = make_world () in
  ignore (add_user world "solo");
  let c = login world "solo" in
  let r = Client.get c "/app/core/dating" ~params:[ ("action", "match") ] in
  check int_c "asks for metric" 200 (status r);
  check bool_c "hint" true (Client.saw c "set a compatibility metric first")

(* ---- chameleon ---- *)

let test_chameleon_profile () =
  let world = make_world () in
  ignore (add_user world "bob");
  ignore (add_user world "buddy");
  ignore (add_user world "crush");
  let bob = login world "bob" in
  ignore
    (Client.post bob "/app/core/social"
       ~form:[ ("action", "set_profile"); ("field", "books"); ("value", "scifi-novels") ]);
  ignore
    (Client.post bob "/app/core/chameleon"
       ~form:[ ("action", "hide"); ("field", "books"); ("from", "crush") ]);
  (* bob exports to everyone so both viewers get pages; the filtering
     is the app's server-side logic *)
  let account = Platform.account_exn world.platform "bob" in
  ignore
    (Declassifier.install_and_authorize world.platform ~account ~name:"public"
       Declassifier.everyone);
  let buddy = login world "buddy" in
  let r = Client.get buddy "/app/core/chameleon" ~params:[ ("user", "bob") ] in
  check int_c "buddy ok" 200 (status r);
  check bool_c "buddy sees books" true (Client.saw buddy "scifi-novels");
  let crush = login world "crush" in
  let r = Client.get crush "/app/core/chameleon" ~params:[ ("user", "bob") ] in
  check int_c "crush ok" 200 (status r);
  check bool_c "books hidden from crush" false (Client.saw crush "scifi-novels")

(* ---- mashup (E10) ---- *)

let seed_addressbook world name =
  let c = login world name in
  List.iter
    (fun (n, street) ->
      let r =
        Client.post c "/app/core/mashup"
          ~form:[ ("action", "add"); ("name", n); ("street", street) ]
      in
      check int_c ("add " ^ n) 200 (status r))
    [ ("mom", "12 Elm Street"); ("dentist", "99 Oak Avenue") ];
  c

let test_mashup_renders_server_side () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = seed_addressbook world "alice" in
  let r = Client.get alice "/app/core/mashup" ~params:[ ("action", "map") ] in
  check int_c "map" 200 (status r);
  check bool_c "grid rendered" true (Client.saw alice "*")

let test_mashup_evil_module_cannot_stash () =
  let world = make_world () in
  let account = add_user world "victim" in
  Policy.choose_module account.Account.policy ~slot:"map.render"
    ~module_id:"gmaps-evil/render";
  let victim = seed_addressbook world "victim" in
  let r = Client.get victim "/app/core/mashup" ~params:[ ("action", "map") ] in
  (* the map still renders for the victim... *)
  check int_c "map renders" 200 (status r);
  (* ...but the stash attempt was denied by the kernel: no file *)
  let exists =
    match
      Platform.with_ctx world.platform ~name:"inspect" (fun ctx ->
          Ok (W5_os.Syscall.file_exists ctx "/apps/gmaps-evil/stash"))
    with
    | Ok b -> b
    | Error _ -> false
  in
  check bool_c "no stash" false exists;
  (* and the audit log shows the denial *)
  let denials = W5_os.Audit.denials (W5_os.Kernel.audit (Platform.kernel world.platform)) in
  check bool_c "denial audited" true (List.length denials >= 1)

(* ---- malicious battery ---- *)

let test_thief_blocked () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = login world "alice" in
  ignore
    (Client.post alice "/app/core/social"
       ~form:[ ("action", "set_profile"); ("field", "ssn"); ("value", "SSN-123-45") ]);
  (* the thief's developer browses anonymously *)
  let attacker = Client.make ~name:"attacker" (Gateway.handler world.platform) in
  let r = Client.get attacker "/app/mal/thief" ~params:[ ("target", "alice") ] in
  check int_c "export refused" 403 (status r);
  check bool_c "no ssn" false (Client.saw attacker "SSN-123-45");
  (* even a logged-in non-owner gets nothing *)
  ignore (add_user world "mallory");
  let mallory = login world "mallory" in
  let r = Client.get mallory "/app/mal/thief" ~params:[ ("target", "alice") ] in
  check int_c "refused for mallory" 403 (status r);
  check bool_c "mallory no ssn" false (Client.saw mallory "SSN-123-45");
  (* the owner can run the thief on herself: it reads, cannot copy *)
  let r = Client.get alice "/app/mal/thief" ~params:[ ("target", "alice") ] in
  check int_c "owner sees own data" 200 (status r);
  check bool_c "copy denied" true (Client.saw alice "copy-to-public denied")

let test_vandal_blocked () =
  let world = make_world () in
  ignore (add_user world "alice");
  ignore (add_user world "mallory");
  let mallory = login world "mallory" in
  let r = Client.get mallory "/app/mal/vandal" ~params:[ ("target", "alice") ] in
  check int_c "vandal report" 200 (status r);
  check bool_c "nothing allowed" false (Client.saw mallory "ALLOWED (bug!)");
  (* alice's data is intact *)
  let alice = login world "alice" in
  let r = Client.get alice "/app/core/social" ~params:[ ("user", "alice") ] in
  check int_c "profile fine" 200 (status r);
  check bool_c "not vandalized" false (Client.saw alice "VANDALIZED")

let test_hog_dies_by_quota_others_fine () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = login world "alice" in
  let r = Client.get alice "/app/mal/hog" in
  check int_c "hog killed" 429 (status r);
  (* platform still serves others *)
  let r = Client.get alice "/app/core/social" ~params:[ ("user", "alice") ] in
  check int_c "still serving" 200 (status r)

let test_spammer_dies_by_quota () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = login world "alice" in
  let r = Client.get alice "/app/mal/spammer" in
  check int_c "spammer killed" 429 (status r)

let test_hoarder_allowed_but_flaggable () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = login world "alice" in
  let r =
    Client.post alice "/app/mal/hoarder"
      ~form:[ ("action", "import"); ("data", "my plain data") ]
  in
  (* nothing in W5 prevents anti-social storage (§3.2)... *)
  check int_c "hoarder runs" 200 (status r);
  check bool_c "scramble is an involution" true
    (W5_apps.Malicious.scramble (W5_apps.Malicious.scramble "my plain data")
    = "my plain data");
  (* ...the defense is editorial *)
  let editor = W5_rank.Editor.create "watchdog" in
  W5_rank.Editor.flag_antisocial editor ~app:"mal/hoarder" ~reason:"proprietary format";
  let results =
    W5_rank.Code_search.score_all ~editors:[ editor ] (Platform.registry world.platform)
  in
  let hoarder = List.find (fun r -> r.W5_rank.Code_search.app_id = "mal/hoarder") results in
  check bool_c "flag visible in search" true
    (hoarder.W5_rank.Code_search.flagged_by = [ "watchdog" ])

(* ---- silo baseline (F1) ---- *)

let test_silo_baseline_contrast () =
  let open W5_apps.Silo_baseline in
  let flickr = create_site "flickr-like" in
  let facebook = create_site "facebook-like" in
  set_data flickr ~user:"amy" ~key:"photo" ~value:"AMYPIX";
  set_data flickr ~user:"amy" ~key:"music" ~value:"jazz";
  set_data facebook ~user:"amy" ~key:"music" ~value:"jazz";
  (* 1. a thief app on a silo site exports everything, trust is the
     only barrier *)
  let loot = thief_export flickr ~user:"amy" in
  check bool_c "silo thief wins" true
    (String.length loot > 0
    &&
    let has sub =
      let rec scan i =
        i + String.length sub <= String.length loot
        && (String.sub loot i (String.length sub) = sub || scan (i + 1))
      in
      scan 0
    in
    has "AMYPIX");
  (* 2. "privacy settings" only work if honored *)
  check bool_c "honored" true (privacy_setting flickr ~user:"amy" ~honored:true = None);
  check bool_c "not honored" true
    (privacy_setting flickr ~user:"amy" ~honored:false <> None);
  (* 3. migration = manual re-upload of every item *)
  let newsite = create_site "upstart" in
  let reuploads = migrate ~from_site:flickr ~to_site:newsite ~user:"amy" in
  check int_c "re-upload count" 2 reuploads;
  (* 4. the same preference lives in N places — and the migration
     just minted copy number three *)
  check int_c "duplication" 3
    (duplication_factor [ flickr; facebook; newsite ] ~user:"amy" ~key:"music")

let suite =
  [
    Alcotest.test_case "photo upload and view" `Quick test_photo_upload_and_view;
    Alcotest.test_case "photo crop module choice" `Quick
      test_photo_crop_module_choice;
    Alcotest.test_case "photo requires write delegation" `Quick
      test_photo_requires_write_delegation;
    Alcotest.test_case "photo cross-user via declassifier" `Quick
      test_photo_cross_user_via_declassifier;
    Alcotest.test_case "blog roundtrip" `Quick test_blog_roundtrip;
    Alcotest.test_case "recommendation digest" `Quick test_recommendation_digest;
    Alcotest.test_case "dating matchmaker" `Quick test_dating_matchmaker;
    Alcotest.test_case "dating needs metric" `Quick test_dating_needs_metric;
    Alcotest.test_case "chameleon profile" `Quick test_chameleon_profile;
    Alcotest.test_case "mashup renders server side" `Quick
      test_mashup_renders_server_side;
    Alcotest.test_case "mashup evil module cannot stash" `Quick
      test_mashup_evil_module_cannot_stash;
    Alcotest.test_case "thief blocked" `Quick test_thief_blocked;
    Alcotest.test_case "vandal blocked" `Quick test_vandal_blocked;
    Alcotest.test_case "hog dies by quota" `Quick test_hog_dies_by_quota_others_fine;
    Alcotest.test_case "spammer dies by quota" `Quick test_spammer_dies_by_quota;
    Alcotest.test_case "hoarder allowed but flaggable" `Quick
      test_hoarder_allowed_but_flaggable;
    Alcotest.test_case "silo baseline contrast" `Quick test_silo_baseline_contrast;
  ]

(* ---- messaging over the labeled store ---- *)

let publish_messages world =
  ignore
    (ok_s (W5_apps.Message_app.publish world.platform ~dev:world.core_dev));
  List.iter
    (fun user ->
      ok_s (Platform.enable_app world.platform ~user ~app:"core/messages"))
    (List.map (fun (a : Account.t) -> a.Account.user)
       (Platform.accounts world.platform))

let test_message_send_and_inbox () =
  let world = make_world () in
  ignore (add_user world "alice");
  ignore (add_user world "bob");
  publish_messages world;
  let alice = login world "alice" in
  let r =
    Client.post alice "/app/core/messages"
      ~form:[ ("action", "send"); ("to", "bob"); ("body", "MEET-AT-NOON") ]
  in
  check int_c "send" 200 (status r);
  (* bob cannot read it yet: the message carries alice's tag and she
     has no declassifier *)
  let bob = login world "bob" in
  let r = Client.get bob "/app/core/messages" ~params:[ ("action", "inbox") ] in
  check int_c "blocked" 403 (status r);
  (* alice authorizes her correspondents *)
  let account = Platform.account_exn world.platform "alice" in
  ignore
    (Declassifier.install_and_authorize world.platform ~account ~name:"mail"
       (Declassifier.group ~members:[ "bob" ]));
  let bob2 = login world "bob" in
  let r = Client.get bob2 "/app/core/messages" ~params:[ ("action", "inbox") ] in
  check int_c "inbox" 200 (status r);
  check bool_c "message delivered" true (Client.saw bob2 "MEET-AT-NOON");
  (* filtering by sender uses the same safe query *)
  let r =
    Client.get bob2 "/app/core/messages"
      ~params:[ ("action", "from"); ("sender", "alice") ]
  in
  check int_c "filter" 200 (status r)

let test_message_third_party_cannot_peek () =
  let world = make_world () in
  ignore (add_user world "alice");
  ignore (add_user world "bob");
  ignore (add_user world "eve");
  publish_messages world;
  let alice = login world "alice" in
  ignore
    (Client.post alice "/app/core/messages"
       ~form:[ ("action", "send"); ("to", "bob"); ("body", "FOR-BOB-ONLY") ]);
  let account = Platform.account_exn world.platform "alice" in
  ignore
    (Declassifier.install_and_authorize world.platform ~account ~name:"mail"
       (Declassifier.group ~members:[ "bob" ]));
  (* eve asks for BOB's inbox: the query engine reads it (tainting the
     process with bob's tag too), and the perimeter refuses eve *)
  let eve = login world "eve" in
  let r = Client.get eve "/app/core/messages" ~params:[ ("action", "inbox") ] in
  (* eve's own inbox is empty -> fine *)
  check int_c "own inbox ok" 200 (status r);
  check bool_c "no snooping" false (Client.saw eve "FOR-BOB-ONLY")

let suite =
  suite
  @ [
      Alcotest.test_case "message send and inbox" `Quick
        test_message_send_and_inbox;
      Alcotest.test_case "message third party cannot peek" `Quick
        test_message_third_party_cannot_peek;
    ]

(* ---- calendar: busy/free via a redacting declassifier ---- *)

let test_calendar_busy_free () =
  let world = make_world () in
  ignore (add_user world "owner");
  ignore (add_user world "friendo");
  ignore (ok_s (W5_apps.Calendar_app.publish world.platform ~dev:world.core_dev));
  List.iter
    (fun user ->
      ok_s (Platform.enable_app world.platform ~user ~app:"core/calendar");
      let account = Platform.account_exn world.platform user in
      Policy.delegate_write account.Account.policy "core/calendar")
    [ "owner"; "friendo" ];
  let owner = login world "owner" in
  let r =
    Client.post owner "/app/core/calendar"
      ~form:
        [
          ("action", "add"); ("id", "standup"); ("title", "SECRET-THERAPY");
          ("day", "1"); ("start", "9"); ("len", "2");
        ]
  in
  check int_c "event stored" 200 (status r);
  befriend world ~who:"owner" ~friend_name:"friendo";
  (* the owner's export rule: friends may see a *redacted* page *)
  let account = Platform.account_exn world.platform "owner" in
  ignore
    (Declassifier.install_and_authorize world.platform ~account ~name:"busyfree"
       (Declassifier.redacting Declassifier.friends_only));
  (* owner sees the full title *)
  let r = Client.get owner "/app/core/calendar" ~params:[ ("action", "week"); ("user", "owner") ] in
  check int_c "owner week" 200 (status r);
  check bool_c "owner sees title" true (Client.saw owner "SECRET-THERAPY");
  (* the friend sees the slot but not the title *)
  let friendo = login world "friendo" in
  let r = Client.get friendo "/app/core/calendar" ~params:[ ("action", "week"); ("user", "owner") ] in
  check int_c "friend week" 200 (status r);
  check bool_c "slot visible" true (Client.saw friendo "09:00-11:00");
  check bool_c "title redacted" false (Client.saw friendo "SECRET-THERAPY");
  (* a stranger sees nothing at all *)
  ignore (add_user world "nosy");
  ignore (ok_s (Platform.enable_app world.platform ~user:"nosy" ~app:"core/calendar"));
  let nosy = login world "nosy" in
  let r = Client.get nosy "/app/core/calendar" ~params:[ ("action", "week"); ("user", "owner") ] in
  check int_c "stranger blocked" 403 (status r)

(* ---- polls: aggregates flow, ballots are vetoed ---- *)

let test_poll_tally_flows_ballots_blocked () =
  let world = make_world () in
  ignore (ok_s (W5_apps.Poll_app.publish world.platform ~dev:world.core_dev));
  let voters = [ "v1"; "v2"; "v3" ] in
  List.iter
    (fun user ->
      ignore (add_user world user);
      ok_s (Platform.enable_app world.platform ~user ~app:"core/polls");
      let account = Platform.account_exn world.platform user in
      (* "my data may leave in aggregate, never row by row" *)
      ignore
        (Declassifier.install_and_authorize world.platform ~account
           ~name:"aggregate-only"
           (Declassifier.require_no_secrets Declassifier.everyone)))
    voters;
  List.iter
    (fun (user, choice) ->
      let c = login world user in
      let r =
        Client.post c "/app/core/polls"
          ~form:[ ("action", "vote"); ("poll", "lunch"); ("choice", choice) ]
      in
      check int_c (user ^ " votes") 200 (status r))
    [ ("v1", "pizza"); ("v2", "pizza"); ("v3", "salad") ];
  (* anyone — even a logged-out client — can see the tally *)
  let anon = Client.make (Gateway.handler world.platform) in
  ignore (add_user world "reader");
  let reader = login world "reader" in
  ignore (ok_s (Platform.enable_app world.platform ~user:"reader" ~app:"core/polls"));
  let r = Client.get reader "/app/core/polls" ~params:[ ("action", "tally"); ("poll", "lunch") ] in
  check int_c "tally flows" 200 (status r);
  check bool_c "counts" true (Client.saw reader "pizza: 2" && Client.saw reader "salad: 1");
  ignore anon;
  (* the ballots view is vetoed for the same reader *)
  let r = Client.get reader "/app/core/polls" ~params:[ ("action", "ballots"); ("poll", "lunch") ] in
  check int_c "ballots vetoed" 403 (status r);
  check bool_c "no raw votes seen" false (Client.saw reader "v1 voted")

(* ---- rate limiting at the front door ---- *)

let test_rate_limit () =
  let world = make_world () in
  ignore (add_user world "alice");
  Platform.set_rate_limit world.platform
    (Some (Rate_limit.create ~capacity:5 ~refill_per_tick:0 ()));
  let alice = login world "alice" in
  let statuses =
    List.init 8 (fun _ ->
        status (Client.get alice "/app/core/social" ~params:[ ("user", "alice") ]))
  in
  let ok_count = List.length (List.filter (( = ) 200) statuses) in
  let throttled = List.length (List.filter (( = ) 429) statuses) in
  check int_c "five served" 5 ok_count;
  check int_c "three throttled" 3 throttled;
  (* provider routes are not throttled *)
  let r = Client.get alice "/audit" in
  check int_c "audit still served" 200 (status r)

let suite =
  suite
  @ [
      Alcotest.test_case "calendar busy/free" `Quick test_calendar_busy_free;
      Alcotest.test_case "poll tally flows, ballots blocked" `Quick
        test_poll_tally_flows_ballots_blocked;
      Alcotest.test_case "rate limit" `Quick test_rate_limit;
    ]

(* ---- the daily digest as outbound mail (§2) ---- *)

let test_digest_email_respects_declassifiers () =
  let world = make_world () in
  ignore (add_user world "bob");
  ignore (add_user world "pal");
  ignore (add_user world "loner");
  (* pal posts something and befriends bob; bob lists pal as friend *)
  let palc = login world "pal" in
  ignore
    (Client.post palc "/app/core/blog"
       ~form:[ ("action", "post"); ("id", "x"); ("title", "t"); ("body", "PALWORDS") ]);
  befriend world ~who:"bob" ~friend_name:"pal";
  befriend world ~who:"pal" ~friend_name:"bob";
  install_friends_declassifier world "pal";
  (* loner also enabled the app; their only friend is bob, who posts
     content but never authorizes a declassifier *)
  befriend world ~who:"loner" ~friend_name:"bob";
  let bobc = login world "bob" in
  ignore
    (Client.post bobc "/app/core/blog"
       ~form:[ ("action", "post"); ("id", "y"); ("title", "t"); ("body", "BOBWORDS") ]);
  (* bob's own data has no declassifier — not needed for his own mail *)
  let stats =
    Mailer.run_digests world.platform ~app:"core/recommend"
      ~query:[ ("k", "3") ] ~subject:"your daily digest" ()
  in
  (* bob gets mail; loner is refused (friend bob never authorized a
     declassifier); pal gets mail (bob is in pal's digest? pal's friend
     list has bob, and bob has no declassifier -> refused too) *)
  check bool_c "some delivered" true (stats.Mailer.delivered >= 1);
  check bool_c "some refused" true (stats.Mailer.refused >= 1);
  check int_c "bob has mail" 1 (Mailer.outbox_size world.platform ~user:"bob");
  (match Mailer.outbox world.platform ~user:"bob" with
  | [ email ] ->
      check string_c "to" "bob" email.Mailer.to_user;
      check bool_c "content exported" true
        (let body = email.Mailer.body in
         let needle = "pal/x" in
         let rec scan i =
           i + String.length needle <= String.length body
           && (String.sub body i (String.length needle) = needle || scan (i + 1))
         in
         scan 0)
  | _ -> Alcotest.fail "expected exactly one email");
  check int_c "loner has no mail" 0 (Mailer.outbox_size world.platform ~user:"loner");
  (* clearing works *)
  Mailer.clear_outbox world.platform ~user:"bob";
  check int_c "cleared" 0 (Mailer.outbox_size world.platform ~user:"bob")

(* ---- code search as an app ---- *)

let test_search_app_over_http () =
  let world = make_world () in
  ignore (add_user world "alice");
  let editor = W5_rank.Editor.create "mag" in
  W5_rank.Editor.flag_antisocial editor ~app:"mal/hoarder" ~reason:"proprietary";
  ignore
    (ok_s
       (W5_rank.Code_search.publish_search_app world.platform
          ~dev:(Principal.make Principal.Developer "provider")
          ~editors:[ editor ] ()));
  (* public: even anonymous clients can search *)
  let anon = Client.make (Gateway.handler world.platform) in
  let r = Client.get anon "/app/provider/search" ~params:[ ("q", "crop") ] in
  check int_c "search ok" 200 (status r);
  check bool_c "finds both croppers" true
    (Client.saw anon "devA/crop" && Client.saw anon "devB/crop");
  check bool_c "no unrelated hits" false (Client.saw anon "core/blog");
  let r = Client.get anon "/app/provider/search" ~params:[ ("q", "hoarder") ] in
  check int_c "flag search ok" 200 (status r);
  check bool_c "flag surfaced" true (Client.saw anon "FLAGGED by mag")

let suite =
  suite
  @ [
      Alcotest.test_case "digest email respects declassifiers" `Quick
        test_digest_email_respects_declassifiers;
      Alcotest.test_case "search app over http" `Quick test_search_app_over_http;
    ]

(* ---- blog comments: cross-user data stays its writer's ---- *)

let test_blog_comments () =
  let world = make_world () in
  ignore (add_user world "author");
  ignore (add_user world "fan");
  let author = login world "author" in
  ignore
    (Client.post author "/app/core/blog"
       ~form:[ ("action", "post"); ("id", "e"); ("title", "T"); ("body", "B") ]);
  (* the fan comments *)
  let fan = login world "fan" in
  let r =
    Client.post fan "/app/core/blog"
      ~form:
        [ ("action", "comment"); ("user", "author"); ("id", "e");
          ("text", "FAN-SAYS-HI") ]
  in
  check int_c "comment posted" 200 (status r);
  (* commenting on a ghost entry fails *)
  let r =
    Client.post fan "/app/core/blog"
      ~form:
        [ ("action", "comment"); ("user", "author"); ("id", "ghost"); ("text", "x") ]
  in
  check bool_c "ghost entry rejected" true (Client.saw fan "no such entry");
  ignore r;
  (* the author authorizes friends; fan is not yet a friend: the page
     with the fan's comment is refused even for the author?! No — the
     page carries BOTH tags; the author's own tag passes via the
     boilerplate, the fan's tag needs the fan's declassifier. *)
  let r = Client.get author "/app/core/blog" ~params:[ ("action", "read"); ("user", "author") ] in
  check int_c "author blocked while fan has no declassifier" 403 (status r);
  (* the fan authorizes exports to the author *)
  let fan_account = Platform.account_exn world.platform "fan" in
  ignore
    (Declassifier.install_and_authorize world.platform ~account:fan_account
       ~name:"commenters"
       (Declassifier.group ~members:[ "author" ]));
  let author2 = login world "author" in
  let r = Client.get author2 "/app/core/blog" ~params:[ ("action", "read"); ("user", "author") ] in
  check int_c "author reads with comment" 200 (status r);
  check bool_c "comment visible" true (Client.saw author2 "FAN-SAYS-HI");
  (* a third party needs BOTH declassifiers *)
  ignore (add_user world "reader");
  let reader = login world "reader" in
  let r = Client.get reader "/app/core/blog" ~params:[ ("action", "read"); ("user", "author") ] in
  check int_c "reader blocked (author tag)" 403 (status r)

let suite =
  suite @ [ Alcotest.test_case "blog comments" `Quick test_blog_comments ]

(* ---- additional app edge cases ---- *)

let test_photo_view_missing_and_bad_params () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = login world "alice" in
  let r =
    Client.get alice "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "alice"); ("id", "ghost") ]
  in
  check int_c "missing photo is an error page" 200 (status r);
  check bool_c "explains" true (Client.saw alice "not found");
  let r = Client.get alice "/app/core/photos" ~params:[ ("action", "view") ] in
  check bool_c "missing params" true (Client.saw alice "user and id required");
  let r2 = Client.get alice "/app/core/photos" ~params:[ ("action", "explode") ] in
  check bool_c "unknown action" true (Client.saw alice "unknown action");
  ignore (r, r2)

let test_messages_to_ghost_user () =
  let world = make_world () in
  ignore (add_user world "alice");
  ignore (ok_s (W5_apps.Message_app.publish world.platform ~dev:world.core_dev));
  ok_s (Platform.enable_app world.platform ~user:"alice" ~app:"core/messages");
  let alice = login world "alice" in
  let r =
    Client.post alice "/app/core/messages"
      ~form:[ ("action", "send"); ("to", "nobody"); ("body", "hi") ]
  in
  check int_c "error page" 200 (status r);
  check bool_c "explains" true (Client.saw alice "no such user")

let test_dating_default_k_and_empty_pool () =
  let world = make_world () in
  ignore (add_user world "solo2");
  let c = login world "solo2" in
  ignore
    (Client.post c "/app/core/dating"
       ~form:[ ("action", "set_metric"); ("metric", "x:1") ]);
  let r = Client.get c "/app/core/dating" ~params:[ ("action", "match") ] in
  (* nobody else has interests: empty list, not an error *)
  check int_c "empty pool ok" 200 (status r)

let test_chameleon_anonymous_viewer_conservative () =
  let world = make_world () in
  ignore (add_user world "owner2");
  let owner = login world "owner2" in
  ignore
    (Client.post owner "/app/core/social"
       ~form:[ ("action", "set_profile"); ("field", "books"); ("value", "HIDDENBOOKS") ]);
  ignore
    (Client.post owner "/app/core/chameleon"
       ~form:[ ("action", "hide"); ("field", "books"); ("from", "whoever") ]);
  let account = Platform.account_exn world.platform "owner2" in
  ignore
    (Declassifier.install_and_authorize world.platform ~account ~name:"public"
       Declassifier.everyone);
  (* anonymous clients get the most conservative page: hidden fields
     are omitted for unknown viewers *)
  let anon = Client.make (Gateway.handler world.platform) in
  let r = Client.get anon "/app/core/chameleon" ~params:[ ("user", "owner2") ] in
  check int_c "served" 200 (status r);
  check bool_c "hidden field omitted for anonymous" false (Client.saw anon "HIDDENBOOKS")

let test_hoarder_without_delegation () =
  let world = make_world () in
  let account = add_user world "wary" in
  Policy.revoke_write account.Account.policy "mal/hoarder";
  let wary = login world "wary" in
  let r =
    Client.post wary "/app/mal/hoarder" ~form:[ ("action", "import"); ("data", "d") ]
  in
  check int_c "page" 200 (status r);
  check bool_c "write refused" true (Client.saw wary "write not delegated")

let suite =
  suite
  @ [
      Alcotest.test_case "photo error paths" `Quick
        test_photo_view_missing_and_bad_params;
      Alcotest.test_case "messages to ghost user" `Quick test_messages_to_ghost_user;
      Alcotest.test_case "dating empty pool" `Quick
        test_dating_default_k_and_empty_pool;
      Alcotest.test_case "chameleon anonymous conservative" `Quick
        test_chameleon_anonymous_viewer_conservative;
      Alcotest.test_case "hoarder without delegation" `Quick
        test_hoarder_without_delegation;
    ]

(* ---- a malicious *module* inside a benign app's pipeline ---- *)

let test_malicious_crop_module_contained () =
  let world = make_world () in
  let account = add_user world "victim2" in
  (* a hostile crop module: tries to stash its input, then returns it *)
  let evil_dev = Principal.make Principal.Developer "evilcrop" in
  let evil_handler ctx (env : App_registry.env) =
    let data =
      Request.param_or env.App_registry.request "data" ~default:""
    in
    ignore
      (W5_os.Syscall.create_file ctx "/apps/crop-loot" ~labels:Flow.bottom
         ~data);
    ignore (W5_os.Syscall.respond ctx data)
  in
  ignore
    (ok_s
       (App_registry.publish (Platform.registry world.platform) ~dev:evil_dev
          ~name:"crop" ~version:"1.0" evil_handler));
  Policy.choose_module account.Account.policy ~slot:"photo.crop"
    ~module_id:"evilcrop/crop";
  let victim = login world "victim2" in
  ignore
    (Client.post victim "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "p"); ("data", "VICTIMPIXELS") ]);
  let r =
    Client.get victim "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "victim2"); ("id", "p") ]
  in
  (* the pipeline still works for the owner *)
  check int_c "view ok" 200 (status r);
  check bool_c "owner sees pixels" true (Client.saw victim "VICTIMPIXELS");
  (* but the stash was denied: the module ran inside the tainted
     process and could not write low *)
  let looted =
    match
      Platform.with_ctx world.platform ~name:"check" (fun ctx ->
          Ok (W5_os.Syscall.file_exists ctx "/apps/crop-loot"))
    with
    | Ok b -> b
    | Error _ -> false
  in
  check bool_c "no loot" false looted

let suite =
  suite
  @ [
      Alcotest.test_case "malicious crop module contained" `Quick
        test_malicious_crop_module_contained;
    ]

(* ---- the covert-channel prober, end to end (E8) ---- *)

let test_prober_cannot_export_the_bit () =
  let world = make_world () in
  ignore (add_user world "alice");
  ignore (add_user world "bob");
  ignore (add_user world "eve");
  publish_messages world;
  (* alice messages bob: one row now exists in bob's inbox *)
  let alice = login world "alice" in
  let r =
    Client.post alice "/app/core/messages"
      ~form:[ ("action", "send"); ("to", "bob"); ("body", "hello") ]
  in
  check int_c "message sent" 200 (status r);
  (* eve probes bob's inbox for the existence bit *)
  let eve = login world "eve" in
  let r =
    Client.get eve "/app/mal/prober" ~params:[ ("collection", "inbox-bob") ]
  in
  check int_c "bit refused" 403 (status r);
  check bool_c "no bit leaked" false (Client.saw eve "BIT:1");
  (* probing an empty/nonexistent collection reveals nothing secret:
     that is an honest error, exportable *)
  let r =
    Client.get eve "/app/mal/prober" ~params:[ ("collection", "inbox-nobody") ]
  in
  check int_c "empty probe is a plain error" 200 (status r);
  check bool_c "count failed note" true (Client.saw eve "count failed")

let suite =
  suite
  @ [
      Alcotest.test_case "prober cannot export the bit" `Quick
        test_prober_cannot_export_the_bit;
    ]

(* ---- unfriending revokes access immediately ---- *)

let test_unfriend_revokes_access () =
  let world = make_world () in
  ignore (add_user world "alice");
  ignore (add_user world "bob");
  let alice = login world "alice" in
  ignore
    (Client.post alice "/app/core/social"
       ~form:[ ("action", "set_profile"); ("field", "diary"); ("value", "PRIVATE-NOTE") ]);
  befriend world ~who:"alice" ~friend_name:"bob";
  install_friends_declassifier world "alice";
  let bob = login world "bob" in
  let r = Client.get bob "/app/core/social" ~params:[ ("user", "alice") ] in
  check int_c "friend sees page" 200 (status r);
  (* alice unfriends bob *)
  let r =
    Client.post alice "/app/core/social"
      ~form:[ ("action", "remove_friend"); ("friend", "bob") ]
  in
  check int_c "unfriended" 200 (status r);
  check bool_c "confirmation" true (Client.saw alice "no longer friends with bob");
  (* the very next request is refused: the declassifier reads the
     friends list live, there is no stale grant to revoke *)
  let bob2 = login world "bob" in
  let r = Client.get bob2 "/app/core/social" ~params:[ ("user", "alice") ] in
  check int_c "access gone" 403 (status r);
  check bool_c "no note" false (Client.saw bob2 "PRIVATE-NOTE")

let test_photo_delete () =
  let world = make_world () in
  ignore (add_user world "alice");
  let alice = login world "alice" in
  ignore
    (Client.post alice "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "tmp"); ("data", "D") ]);
  let r = Client.get alice "/app/core/photos" ~params:[ ("action", "list") ] in
  check bool_c "listed" true (Client.saw alice "tmp");
  ignore r;
  let r = Client.post alice "/app/core/photos" ~form:[ ("action", "delete"); ("id", "tmp") ] in
  check int_c "deleted" 200 (status r);
  let alice2 = login world "alice" in
  let r = Client.get alice2 "/app/core/photos" ~params:[ ("action", "list") ] in
  check int_c "list again" 200 (status r);
  check bool_c "gone" false (Client.saw alice2 "tmp");
  (* deleting someone else's photo still impossible: the handler only
     ever touches the viewer's own directory, and even a patched app
     would hit write protection (see vandal test) *)
  ignore r

let suite =
  suite
  @ [
      Alcotest.test_case "unfriend revokes access" `Quick
        test_unfriend_revokes_access;
      Alcotest.test_case "photo delete" `Quick test_photo_delete;
    ]

(* ---- more app behaviors ---- *)

let test_poll_revote_overwrites () =
  let world = make_world () in
  ignore (ok_s (W5_apps.Poll_app.publish world.platform ~dev:world.core_dev));
  ignore (add_user world "v");
  ok_s (Platform.enable_app world.platform ~user:"v" ~app:"core/polls");
  let account = Platform.account_exn world.platform "v" in
  ignore
    (Declassifier.install_and_authorize world.platform ~account ~name:"agg"
       (Declassifier.require_no_secrets Declassifier.everyone));
  let c = login world "v" in
  ignore
    (Client.post c "/app/core/polls"
       ~form:[ ("action", "vote"); ("poll", "p"); ("choice", "yes") ]);
  ignore
    (Client.post c "/app/core/polls"
       ~form:[ ("action", "vote"); ("poll", "p"); ("choice", "no") ]);
  let r = Client.get c "/app/core/polls" ~params:[ ("action", "tally"); ("poll", "p") ] in
  check int_c "tally" 200 (status r);
  check bool_c "revote replaced" true (Client.saw c "no: 1");
  check bool_c "no stale vote" false (Client.saw c "yes: 1")

let test_calendar_rejects_bad_day () =
  let world = make_world () in
  ignore (ok_s (W5_apps.Calendar_app.publish world.platform ~dev:world.core_dev));
  ignore (add_user world "cal");
  ok_s (Platform.enable_app world.platform ~user:"cal" ~app:"core/calendar");
  let account = Platform.account_exn world.platform "cal" in
  Policy.delegate_write account.Account.policy "core/calendar";
  let c = login world "cal" in
  let r =
    Client.post c "/app/core/calendar"
      ~form:
        [ ("action", "add"); ("id", "x"); ("title", "t"); ("day", "9");
          ("start", "1"); ("len", "1") ]
  in
  check int_c "error page" 200 (status r);
  check bool_c "explains" true (Client.saw c "day (0-6)")

let test_message_to_self () =
  let world = make_world () in
  ignore (add_user world "solo3");
  publish_messages world;
  let c = login world "solo3" in
  ignore
    (Client.post c "/app/core/messages"
       ~form:[ ("action", "send"); ("to", "solo3"); ("body", "note to self") ]);
  (* own tag only: the boilerplate policy suffices, no declassifier *)
  let r = Client.get c "/app/core/messages" ~params:[ ("action", "inbox") ] in
  check int_c "inbox" 200 (status r);
  check bool_c "note visible" true (Client.saw c "note to self")

let test_silo_helpers () =
  let open W5_apps.Silo_baseline in
  let s = create_site "s" in
  check string_c "name" "s" (site_name s);
  set_data s ~user:"u" ~key:"k" ~value:"v";
  set_data s ~user:"u" ~key:"k" ~value:"v2";
  check (Alcotest.option string_c) "overwrite" (Some "v2") (get_data s ~user:"u" ~key:"k");
  check (Alcotest.list string_c) "users" [ "u" ] (users s);
  check int_c "data_of" 1 (List.length (data_of s ~user:"u"));
  check (Alcotest.list (Alcotest.pair string_c string_c)) "empty user" []
    (data_of s ~user:"ghost")

let suite =
  suite
  @ [
      Alcotest.test_case "poll revote overwrites" `Quick test_poll_revote_overwrites;
      Alcotest.test_case "calendar rejects bad day" `Quick
        test_calendar_rejects_bad_day;
      Alcotest.test_case "message to self" `Quick test_message_to_self;
      Alcotest.test_case "silo helpers" `Quick test_silo_helpers;
    ]

(* ---- defaults and anonymous behavior ---- *)

let test_social_defaults_to_viewer () =
  let world = make_world () in
  ignore (add_user world "selfie");
  let c = login world "selfie" in
  (* no ?user= parameter: the app shows the viewer's own profile *)
  let r = Client.get c "/app/core/social" in
  check int_c "own page" 200 (status r);
  check bool_c "own name" true (Client.saw c "selfie");
  (* anonymous with no user param: error page, no crash *)
  let anon = Client.make (Gateway.handler world.platform) in
  let r = Client.get anon "/app/core/social" in
  check int_c "anon no target" 200 (status r);
  check bool_c "explains" true (Client.saw anon "user required")

let test_recommend_requires_login () =
  let world = make_world () in
  let anon = Client.make (Gateway.handler world.platform) in
  let r = Client.get anon "/app/core/recommend" in
  check int_c "login prompt" 200 (status r);
  check bool_c "prompted" true (Client.saw anon "please log in")

let test_group_member_caps_after_removal () =
  let world = make_world () in
  let founder = add_user world "gf" in
  ignore (add_user world "gm");
  let group = ok_s (Group.create world.platform ~founder ~name:"caps-check") in
  ignore (ok_s (Group.add_member world.platform group ~user:"gm"));
  check int_c "member has one group cap" 1
    (Capability.Set.cardinal (Group.member_caps world.platform ~user:"gm"));
  ignore (ok_s (Group.remove_member world.platform group ~user:"gm"));
  check int_c "caps revoked" 0
    (Capability.Set.cardinal (Group.member_caps world.platform ~user:"gm"))

let suite =
  suite
  @ [
      Alcotest.test_case "social defaults to viewer" `Quick
        test_social_defaults_to_viewer;
      Alcotest.test_case "recommend requires login" `Quick
        test_recommend_requires_login;
      Alcotest.test_case "group member caps after removal" `Quick
        test_group_member_caps_after_removal;
    ]

(* ---- asynchronous thumbnailing via the per-user worker ---- *)

let ok_s' = function
  | Ok v -> v
  | Error e -> Alcotest.failf "error: %s" (W5_os.Os_error.to_string e)

let test_thumbnail_worker () =
  let world = make_world () in
  ignore (add_user world "shutter");
  ignore (ok_s' (W5_apps.Thumb_service.install world.platform ~user:"shutter"));
  let c = login world "shutter" in
  ignore
    (Client.post c "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "pic"); ("data", "ABCDEFGHIJKLMNOP") ]);
  let r = Client.post c "/app/core/photos" ~form:[ ("action", "thumb"); ("id", "pic") ] in
  check int_c "queued" 200 (status r);
  check bool_c "confirmation" true (Client.saw c "thumbnail queued");
  (* nothing exists until the worker runs *)
  let c2 = login world "shutter" in
  let r = Client.get c2 "/app/core/photos" ~params:[ ("action", "list") ] in
  check bool_c "no thumb yet" false (Client.saw c2 "pic.thumb");
  ignore r;
  (* pump the worker: one job done *)
  check int_c "one job" 1 (ok_s' (W5_apps.Thumb_service.pump_for world.platform ~user:"shutter"));
  let c3 = login world "shutter" in
  let r = Client.get c3 "/app/core/photos" ~params:[ ("action", "list") ] in
  check bool_c "thumb listed" true (Client.saw c3 "pic.thumb");
  ignore r;
  let r =
    Client.get c3 "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "shutter"); ("id", "pic.thumb") ]
  in
  check int_c "thumb viewable" 200 (status r);
  check bool_c "rendered" true (Client.saw c3 "ABCDEFGH~thumb");
  (* the worker holds no standing write privilege: a request without
     write delegation queues a job the worker cannot complete *)
  let account = Platform.account_exn world.platform "shutter" in
  Policy.revoke_write account.Account.policy "core/photos";
  let c4 = login world "shutter" in
  ignore (Client.post c4 "/app/core/photos" ~form:[ ("action", "thumb"); ("id", "pic") ]);
  ignore (W5_apps.Thumb_service.pump_for world.platform ~user:"shutter");
  (* no crash, no new write: pic.thumb still holds the old rendering *)
  let r =
    Client.get c4 "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "shutter"); ("id", "pic.thumb") ]
  in
  check int_c "still served" 200 (status r)

(* The same flow served the scheduled way: the worker is a service, so
   no drain may run (and so end) it. *)
let test_thumbnail_worker_scheduled () =
  let world = make_world () in
  ignore (add_user world "shutter");
  ignore (ok_s' (W5_apps.Thumb_service.install world.platform ~user:"shutter"));
  let scheduled request =
    let pending = Gateway.submit world.platform request in
    ignore (W5_os.Sched.run (Platform.kernel world.platform));
    Gateway.conclude world.platform pending
  in
  let c = Client.make ~name:"shutter" scheduled in
  ignore
    (Client.post c "/login" ~form:[ ("user", "shutter"); ("pass", "shutter-pw") ]);
  ignore
    (Client.post c "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "pic"); ("data", "ABCDEFGHIJKLMNOP") ]);
  let r = Client.post c "/app/core/photos" ~form:[ ("action", "thumb"); ("id", "pic") ] in
  check int_c "queued" 200 (status r);
  check bool_c "confirmation" true (Client.saw c "thumbnail queued");
  check int_c "one job" 1
    (ok_s' (W5_apps.Thumb_service.pump_for world.platform ~user:"shutter"));
  let r =
    Client.get c "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "shutter"); ("id", "pic.thumb") ]
  in
  check int_c "thumb viewable" 200 (status r);
  check bool_c "rendered" true (Client.saw c "ABCDEFGH~thumb")

let suite =
  suite
  @ [
      Alcotest.test_case "thumbnail worker" `Quick test_thumbnail_worker;
      Alcotest.test_case "thumbnail worker, scheduled" `Quick
        test_thumbnail_worker_scheduled;
    ]

(* ---- the groups app over HTTP ---- *)

let test_group_app_wall () =
  let world = make_world () in
  let founder = add_user world "gfound" in
  ignore (add_user world "gmem");
  ignore (add_user world "gout");
  ignore (ok_s (W5_apps.Group_app.publish world.platform ~dev:world.core_dev));
  List.iter
    (fun user -> ok_s (Platform.enable_app world.platform ~user ~app:"core/groups"))
    [ "gfound"; "gmem"; "gout" ];
  let group = ok_s (Group.create world.platform ~founder ~name:"hikers") in
  ignore (ok_s (Group.add_member world.platform group ~user:"gmem"));
  (* the founder posts over HTTP *)
  let fc = login world "gfound" in
  let r =
    Client.post fc "/app/core/groups"
      ~form:[ ("action", "post"); ("group", "hikers"); ("id", "p1");
              ("body", "TRAILHEAD-7AM") ]
  in
  check int_c "posted" 200 (status r);
  (* a member reads the wall *)
  let mc = login world "gmem" in
  let r = Client.get mc "/app/core/groups" ~params:[ ("action", "wall"); ("group", "hikers") ] in
  check int_c "member wall" 200 (status r);
  check bool_c "post visible" true (Client.saw mc "TRAILHEAD-7AM");
  (* membership listing *)
  let r = Client.get mc "/app/core/groups" in
  check bool_c "lists hikers" true (Client.saw mc "hikers");
  ignore r;
  (* an outsider cannot read (denied at absorb) and cannot post *)
  let oc = login world "gout" in
  let r = Client.get oc "/app/core/groups" ~params:[ ("action", "wall"); ("group", "hikers") ] in
  check bool_c "outsider wall blocked" true
    (status r <> 200 || not (Client.saw oc "TRAILHEAD-7AM"));
  let r =
    Client.post oc "/app/core/groups"
      ~form:[ ("action", "post"); ("group", "hikers"); ("id", "spam"); ("body", "x") ]
  in
  check bool_c "outsider cannot post" true (Client.saw oc "not a member");
  ignore r;
  (* outsider's own groups page is empty and harmless *)
  let r = Client.get oc "/app/core/groups" in
  check int_c "mine ok" 200 (status r);
  (* assert on this page alone: earlier *denial* pages legitimately
     name the tag (data-free), the membership page must not list it *)
  check bool_c "no hikers in membership page" false
    (let body = r.Response.body in
     let needle = "<li>hikers</li>" in
     let rec scan i =
       i + String.length needle <= String.length body
       && (String.sub body i (String.length needle) = needle || scan (i + 1))
     in
     scan 0)

let suite =
  suite @ [ Alcotest.test_case "group app wall" `Quick test_group_app_wall ]

(* ---- composition: cross-user view through a chosen module ---- *)

let test_cross_user_view_through_module () =
  let world = make_world () in
  ignore (add_user world "alice");
  let bob_account = add_user world "bob" in
  let alice = login world "alice" in
  ignore
    (Client.post alice "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "p"); ("data", "SHAREDPIXELS") ]);
  befriend world ~who:"alice" ~friend_name:"bob";
  install_friends_declassifier world "alice";
  (* bob views alice's photo through HIS chosen framer module: the
     module runs inside a process tainted with alice's tag, and the
     framed output still needs alice's declassifier to reach bob *)
  Policy.choose_module bob_account.Account.policy ~slot:"photo.crop"
    ~module_id:"devB/crop";
  let bob = login world "bob" in
  let r =
    Client.get bob "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "alice"); ("id", "p") ]
  in
  check int_c "framed cross-user view" 200 (status r);
  check bool_c "framed output crossed" true (Client.saw bob "[[SHAREDPIXELS]]");
  (* a stranger with the same module choice gets nothing *)
  let eve_account = add_user world "eve2" in
  Policy.choose_module eve_account.Account.policy ~slot:"photo.crop"
    ~module_id:"devB/crop";
  let eve = login world "eve2" in
  let r =
    Client.get eve "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "alice"); ("id", "p") ]
  in
  check int_c "stranger refused" 403 (status r)

let suite =
  suite
  @ [
      Alcotest.test_case "cross-user view through module" `Quick
        test_cross_user_view_through_module;
    ]

(* ---- remaining route/behavior edges ---- *)

let test_mashup_empty_addressbook () =
  let world = make_world () in
  ignore (add_user world "empty-amy");
  let c = login world "empty-amy" in
  let r = Client.get c "/app/core/mashup" ~params:[ ("action", "map") ] in
  (* no address book yet: an honest error page, not a crash *)
  check int_c "served" 200 (status r);
  check bool_c "explains" true (Client.saw c "not found")

let test_calendar_free_week () =
  let world = make_world () in
  ignore (ok_s (W5_apps.Calendar_app.publish world.platform ~dev:world.core_dev));
  ignore (add_user world "idle");
  ok_s (Platform.enable_app world.platform ~user:"idle" ~app:"core/calendar");
  let c = login world "idle" in
  let r = Client.get c "/app/core/calendar" ~params:[ ("action", "week") ] in
  check int_c "week" 200 (status r);
  check bool_c "all free" true (Client.saw c "free")

let test_thief_on_missing_target () =
  let world = make_world () in
  ignore (add_user world "mallory2");
  let c = login world "mallory2" in
  let r = Client.get c "/app/mal/thief" ~params:[ ("target", "ghost") ] in
  check int_c "thief on ghost" 200 (status r);
  check bool_c "nothing to steal" true (Client.saw c "could not even read")

let suite =
  suite
  @ [
      Alcotest.test_case "mashup empty addressbook" `Quick
        test_mashup_empty_addressbook;
      Alcotest.test_case "calendar free week" `Quick test_calendar_free_week;
      Alcotest.test_case "thief on missing target" `Quick
        test_thief_on_missing_target;
    ]
