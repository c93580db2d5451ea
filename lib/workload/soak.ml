open W5_http
open W5_platform

type config = {
  seed : int;
  users : int;
  requests : int;
  waves : int;
  mix : Trace.mix;
  quantum : int;
  rate : (int * int) option;
}

let default_config =
  {
    seed = 42;
    users = 50;
    requests = 1200;
    waves = 1;
    mix = Trace.read_heavy;
    quantum = W5_os.Sched.default_quantum;
    rate = None;
  }

type summary = {
  s_seed : int;
  s_users : int;
  s_requests : int;
  s_waves : int;
  s_quantum : int;
  s_submitted : int;
  s_ok : int;
  s_forbidden : int;
  s_throttled : int;
  s_failed : int;
  s_peak_in_flight : int;
  s_slices : int;
  s_preemptions : int;
  s_completed : int;
  s_killed : int;
  s_max_runq : int;
  s_canary_leaks : int;
  s_unlabeled_canaries : int;
  s_audit_entries : int;
  s_final_tick : int;
  s_digest : string;
}

(* ---- canaries ---- *)

let canary user = "CANARY-" ^ user ^ "-END"

(* One left-to-right scan per body: every [CANARY-<owner>-END] planted
   marker found in [body] yields its owner. Linear in the body, not in
   (bodies x users), which is what makes sweeping thousands of
   responses cheap. *)
let canary_owners body =
  let marker = "CANARY-" and stop = "-END" in
  let mn = String.length marker and sn = String.length stop in
  let rec scan i acc =
    match W5_http.Substring.find ~from:i body marker with
    | None -> List.rev acc
    | Some i -> (
        match W5_http.Substring.find ~from:(i + mn) body stop with
        | None -> List.rev acc
        | Some j ->
            scan (j + sn) (String.sub body (i + mn) (j - i - mn) :: acc))
  in
  scan 0 []

let walk_fs platform f =
  let fs = W5_os.Kernel.fs (Platform.kernel platform) in
  let rec walk path =
    match W5_os.Fs.stat fs path with
    | Error _ -> ()
    | Ok st -> (
        match st.W5_os.Fs.kind with
        | W5_os.Fs.Directory -> (
            match W5_os.Fs.readdir fs path with
            | Error _ -> ()
            | Ok (names, _) ->
                List.iter
                  (fun name ->
                    walk
                      (if path = "/" then "/" ^ name else path ^ "/" ^ name))
                  names)
        | W5_os.Fs.Regular -> (
            match W5_os.Fs.read fs path with
            | Error _ -> ()
            | Ok (data, labels) -> f path data labels))
  in
  walk "/"

let unlabeled_canary_paths platform ~needles =
  let bad = ref [] in
  walk_fs platform (fun path data labels ->
      if
        W5_difc.Label.is_empty labels.W5_difc.Flow.secrecy
        && List.exists (W5_http.Substring.contains data) needles
      then bad := path :: !bad);
  List.rev !bad

(* ---- determinism fingerprint ----

   Audit text plus a full store image. Tag ids come from a
   process-global counter (W5_difc.Tag), so two same-seed runs inside
   one process differ exactly by a constant id offset; renumbering
   every [#N] token by first occurrence cancels it (audit sequence
   numbers and pids are per-kernel and renumber consistently too).
   Two separate processes produce byte-identical raw text anyway —
   the normalization only widens where the comparison can run. *)

let renumber text =
  let buf = Buffer.create (String.length text) in
  let seen = Hashtbl.create 256 in
  let n = String.length text in
  let is_digit c = c >= '0' && c <= '9' in
  (* Only tag ids need renumbering, and they always follow the tag
     name ("s:alice#12"). A '#' at line start is an audit sequence
     number — already identical across same-seed runs, and renumbering
     it could collide with a tag id in one run but not the other. *)
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || is_digit c || c = '_' || c = '-' || c = ':' || c = '.'
  in
  let rec go i =
    if i >= n then ()
    else if
      text.[i] = '#'
      && i + 1 < n
      && is_digit text.[i + 1]
      && i > 0
      && is_name_char text.[i - 1]
    then begin
      let j = ref (i + 1) in
      while !j < n && is_digit text.[!j] do incr j done;
      let tok = String.sub text (i + 1) (!j - i - 1) in
      let id =
        match Hashtbl.find_opt seen tok with
        | Some id -> id
        | None ->
            let id = Hashtbl.length seen in
            Hashtbl.replace seen tok id;
            id
      in
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int id);
      go !j
    end
    else begin
      Buffer.add_char buf text.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let store_image platform =
  let buf = Buffer.create 65536 in
  walk_fs platform (fun path data labels ->
      Buffer.add_string buf
        (Format.asprintf "%s [%a] %s\n" path W5_difc.Flow.pp_labels labels data));
  renumber (Buffer.contents buf)

let fingerprint platform =
  let buf = Buffer.create 65536 in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" W5_os.Audit.pp_entry e))
    (W5_os.Audit.entries (W5_os.Kernel.audit (Platform.kernel platform)));
  walk_fs platform (fun path data labels ->
      Buffer.add_string buf
        (Format.asprintf "%s [%a] %s\n" path W5_difc.Flow.pp_labels labels data));
  renumber (Buffer.contents buf)

let fingerprint_digest platform = Digest.to_hex (Digest.string (fingerprint platform))

(* ---- the run ---- *)

let plant_canaries society =
  let platform = society.Populate.platform in
  List.iter
    (fun user ->
      let account = Platform.account_exn platform user in
      match
        Platform.write_user_record platform account ~file:"profile"
          (W5_store.Record.of_fields [ ("user", user); ("canary", canary user) ])
      with
      | Ok () -> ()
      | Error _ -> ())
    society.Populate.users

(* Requests are built directly (not through {!Client}) because submit
   needs raw {!Request.t} values: one per action, carrying the user's
   real session cookie, exactly what the synchronous replay sends. *)
let request_of society ~cookie_of action =
  let social = "/app/" ^ society.Populate.social_id in
  let photos = "/app/" ^ society.Populate.photo_id in
  let blog = "/app/" ^ society.Populate.blog_id in
  let get viewer path params =
    ( viewer,
      Request.make ~headers:(cookie_of viewer) ~client:viewer Request.GET
        (Uri.with_query path params) )
  in
  let post viewer path form =
    ( viewer,
      Request.make ~headers:(cookie_of viewer) ~client:viewer ~body:form
        Request.POST path )
  in
  match action with
  | Trace.View_profile { viewer; target } ->
      get viewer social [ ("user", target) ]
  | Trace.List_photos { viewer; target } ->
      get viewer photos [ ("action", "list"); ("user", target) ]
  | Trace.Read_blog { viewer; target } ->
      get viewer blog [ ("action", "read"); ("user", target) ]
  | Trace.Upload_photo { viewer; id } ->
      post viewer photos
        [ ("action", "upload"); ("id", id); ("data", "pix-" ^ id) ]
  | Trace.Post_blog { viewer; id } ->
      post viewer blog
        [ ("action", "post"); ("id", id); ("title", id); ("body", "b") ]
  | Trace.Add_friend { viewer; friend_name } ->
      post viewer social [ ("action", "add_friend"); ("friend", friend_name) ]

let friends_of platform user =
  let account = Platform.account_exn platform user in
  match Platform.read_user_record platform account ~file:"friends" with
  | Ok r -> W5_store.Record.get_list r "friends"
  | Error _ -> []

let split_waves n xs =
  let xs = Array.of_list xs in
  let total = Array.length xs in
  let n = max 1 n in
  List.init n (fun w ->
      let lo = w * total / n and hi = (w + 1) * total / n in
      Array.to_list (Array.sub xs lo (hi - lo)))

let run ?(between_waves = fun _ _ -> ()) cfg =
  let society =
    Populate.build ~seed:cfg.seed ~users:cfg.users ~friends_per_user:3
      ~photos_per_user:1 ~blog_posts_per_user:1 ()
  in
  let platform = society.Populate.platform in
  (match cfg.rate with
  | None -> ()
  | Some (capacity, refill_per_tick) ->
      Platform.set_rate_limit platform
        (Some (Rate_limit.create ~capacity ~refill_per_tick ())));
  plant_canaries society;
  (* log every user in once, up front, so the measured stream is pure
     application traffic *)
  let jars = Hashtbl.create cfg.users in
  List.iter
    (fun user ->
      let client = Populate.login society user in
      let header =
        match W5_http.Client.cookies client with
        | [] -> Headers.empty
        | jar ->
            Headers.set Headers.empty "Cookie"
              (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) jar))
      in
      Hashtbl.replace jars user header)
    society.Populate.users;
  let cookie_of user =
    match Hashtbl.find_opt jars user with
    | Some h -> h
    | None -> Headers.empty
  in
  let rng = Rng.create ~seed:(cfg.seed + 1) in
  let actions =
    Trace.generate rng ~society ~mix:cfg.mix ~length:cfg.requests
  in
  let sched =
    W5_os.Sched.create ~quantum:cfg.quantum
      ~policy:(W5_os.Sched.Seeded cfg.seed)
      (Platform.kernel platform)
  in
  let submitted = ref 0
  and ok = ref 0
  and forbidden = ref 0
  and throttled = ref 0
  and failed = ref 0
  and peak = ref 0
  and observations = ref [] in
  List.iteri
    (fun w wave ->
      (* admission: every request of the wave is routed, throttled and
         spawned before any application code runs *)
      let pendings =
        List.map
          (fun action ->
            let viewer, request = request_of society ~cookie_of action in
            incr submitted;
            (viewer, Gateway.submit platform request))
          wave
      in
      let in_flight =
        List.length (List.filter (fun (_, p) -> Gateway.in_flight p) pendings)
      in
      if in_flight > !peak then peak := in_flight;
      (* interleave all in-flight application processes *)
      W5_os.Sched.drain sched;
      (* conclusion in admission order: perimeter export, telemetry *)
      List.iter
        (fun (viewer, pending) ->
          let response = Gateway.conclude platform pending in
          (match Response.status_code response.Response.status with
          | 200 | 302 -> incr ok
          | 403 -> incr forbidden
          | 429 -> incr throttled
          | _ -> incr failed);
          observations := (viewer, response.Response.body) :: !observations)
        pendings;
      between_waves w society)
    (split_waves cfg.waves actions);
  (* canary sweep: nobody may have observed a canary belonging to a
     user who never befriended them *)
  let leaks = ref 0 in
  List.iter
    (fun (viewer, body) ->
      List.iter
        (fun owner ->
          if
            owner <> viewer
            && not (List.mem viewer (friends_of platform owner))
          then incr leaks)
        (canary_owners body))
    !observations;
  let bare =
    unlabeled_canary_paths platform
      ~needles:(List.map canary society.Populate.users)
  in
  let stats = W5_os.Sched.stats sched in
  let kernel = Platform.kernel platform in
  ( society,
    {
      s_seed = cfg.seed;
      s_users = cfg.users;
      s_requests = cfg.requests;
      s_waves = max 1 cfg.waves;
      s_quantum = cfg.quantum;
      s_submitted = !submitted;
      s_ok = !ok;
      s_forbidden = !forbidden;
      s_throttled = !throttled;
      s_failed = !failed;
      s_peak_in_flight = !peak;
      s_slices = stats.W5_os.Sched.slices;
      s_preemptions = stats.W5_os.Sched.preemptions;
      s_completed = stats.W5_os.Sched.completed;
      s_killed = stats.W5_os.Sched.killed;
      s_max_runq = stats.W5_os.Sched.max_depth;
      s_canary_leaks = !leaks;
      s_unlabeled_canaries = List.length bare;
      s_audit_entries =
        List.length (W5_os.Audit.entries (W5_os.Kernel.audit kernel));
      s_final_tick = W5_os.Kernel.tick kernel;
      s_digest = fingerprint_digest platform;
    } )

let render s =
  String.concat "\n"
    [
      "w5 soak summary";
      Printf.sprintf "config: seed=%d users=%d requests=%d waves=%d quantum=%d"
        s.s_seed s.s_users s.s_requests s.s_waves s.s_quantum;
      Printf.sprintf
        "requests: submitted=%d ok=%d forbidden=%d throttled=%d failed=%d"
        s.s_submitted s.s_ok s.s_forbidden s.s_throttled s.s_failed;
      Printf.sprintf "concurrency: peak_in_flight=%d max_runq=%d"
        s.s_peak_in_flight s.s_max_runq;
      Printf.sprintf
        "scheduler: slices=%d preemptions=%d completed=%d killed=%d"
        s.s_slices s.s_preemptions s.s_completed s.s_killed;
      Printf.sprintf "safety: canary_leaks=%d unlabeled_canaries=%d"
        s.s_canary_leaks s.s_unlabeled_canaries;
      Printf.sprintf "audit: entries=%d final_tick=%d" s.s_audit_entries
        s.s_final_tick;
      Printf.sprintf "digest: %s" s.s_digest;
      "";
    ]
