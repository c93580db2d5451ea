(* Request-level benchmark of one in-process W5 provider.

   Seeded request streams enter through the gateway's public calls
   only: [Gateway.submit], then [Kernel.run] (one request at a time) or
   [Sched.drain] (a wave), then [Gateway.conclude]. The untraced run
   reads the clock around each request (or wave) and reports the
   end-to-end metrics. The traced run adds timers between the three
   calls on alternate blocks of traffic and reads per-layer counts from
   the kernel's metrics registry, the label caches and the GC.

   Every response is checked against a status the generator predicts
   from its own model of the friend graph and the commenters, and is
   scanned for profile canaries. A canary shown to a viewer its owner's
   declassifier would refuse is a leak: the run exits 3 and prints no
   numbers.

     e2e.exe --workload W --seed S --seconds N --trace 0|1
     e2e.exe --smoke --workload W --seed S

   README.md describes the workloads and the metrics. *)

open W5_http
open W5_platform
module Kernel = W5_os.Kernel
module Sched = W5_os.Sched
module Audit = W5_os.Audit
module Metrics = W5_obs.Metrics
module Record = W5_store.Record
module Populate = W5_workload.Populate
module Rng = W5_workload.Rng
module Soak = W5_workload.Soak

let now () = Int64.to_int (Monotonic_clock.now ())

(* ---- workloads ---- *)

type read = Profile | Photos | Blog
type kind = Read of read | Upload | Post | Befriend

type workload = {
  name : string;
  users : int;
  picks : int;
      (** friends each user picks; the graph is made symmetric, so a
          user's degree is about twice this *)
  photos : int;  (** per user; every upload is paired with a delete *)
  entries : int;  (** blog entries per user; posts overwrite one of them *)
  entry_bytes : int;
  commenters : int;  (** comments on every entry, each by a friend of the author *)
  mix : (kind * int) list;
  waves : bool;
      (** every user sends one request per wave and a seeded [Sched]
          drains the wave; otherwise one client sends one request at a
          time and [Kernel.run] runs it *)
  setups : int;
      (** set-ups per timed run, about a second of them, so that the
          reported median is steady *)
  warmup : int;  (** at least this many requests before measuring *)
  length : int;
      (** nominal requests of a full run; timed runs stop after
          [--seconds] instead, so this only sizes the smoke run (1%) *)
}

let browse_mix =
  [ (Read Profile, 45); (Read Photos, 25); (Read Blog, 20); (Upload, 3); (Post, 4) ]

let workloads =
  [
    { name = "browse"; users = 2048; picks = 4; photos = 4; entries = 2;
      entry_bytes = 48; commenters = 0; mix = browse_mix; waves = false;
      setups = 3; warmup = 50_000; length = 250_000 };
    (* 40 of 80 requests write: upload, its paired delete, post, befriend *)
    { name = "post"; users = 64; picks = 4; photos = 4; entries = 8;
      entry_bytes = 48; commenters = 0;
      mix =
        [ (Read Profile, 15); (Read Photos, 10); (Read Blog, 15); (Upload, 10);
          (Post, 10); (Befriend, 10) ];
      waves = false; setups = 50; warmup = 50_000; length = 250_000 };
    { name = "commingled"; users = 64; picks = 4; photos = 40; entries = 16;
      entry_bytes = 600; commenters = 4;
      mix = [ (Read Profile, 20); (Read Photos, 20); (Read Blog, 60) ];
      waves = false; setups = 5; warmup = 5_000; length = 50_000 };
    { name = "burst"; users = 256; picks = 4; photos = 4; entries = 2;
      entry_bytes = 48; commenters = 0; mix = browse_mix; waves = true;
      setups = 16; warmup = 51_200; length = 256_000 };
  ]

(* ---- the generator's model of the provider ---- *)

type model = {
  names : string array;
  index : (string, int) Hashtbl.t;
  friends : int list array;
      (** each user's own list: the viewers their declassifier admits *)
  photos : string Queue.t array;  (** oldest first *)
  newest : string array;
  delete_due : bool array;  (** the user's next request deletes their oldest photo *)
  commenters : int list array;  (** everyone who commented on the user's blog *)
}

let sees m ~viewer owner = viewer = owner || List.mem viewer m.friends.(owner)

(* A page carries its owner's tag and, for a blog, every commenter's;
   the perimeter exports it only if every tag's declassifier agrees. *)
let allowed m ~viewer = function
  | Blog, t -> sees m ~viewer t && List.for_all (sees m ~viewer) m.commenters.(t)
  | (Profile | Photos), t -> sees m ~viewer t

type action =
  | View of read * int
  | Upload_photo of string
  | Delete_photo of string
  | Post_entry of { id : string; body : string }
  | Add_friend of int
  | Remove_friend of int
  | Comment of { author : int; entry : string; text : string }

type req = {
  viewer : int;
  action : action;
  expect : int;  (** predicted status *)
  marker : string;  (** the body must contain it; "" checks nothing *)
  shown : string list;  (** the canary owners the body must show *)
  request : Request.t;
}

let predict m ~viewer = function
  | View (r, t) when not (allowed m ~viewer (r, t)) -> (403, "", [])
  | View (Profile, t) -> (200, "", [ m.names.(t) ])
  | View (Photos, t) -> (200, "<li>" ^ m.newest.(t) ^ "</li>", [])
  | View (Blog, _) -> (200, "<article>", [])
  | Upload_photo id -> (200, "stored photo " ^ id, [])
  | Delete_photo id -> (200, "deleted photo " ^ id, [])
  | Post_entry { id; _ } -> (200, "published " ^ id, [])
  | Add_friend f -> (200, "now friends with " ^ m.names.(f), [])
  | Remove_friend f -> (200, "no longer friends with " ^ m.names.(f), [])
  | Comment _ -> (200, "comment posted", [])

let apply m r =
  let v = r.viewer in
  match r.action with
  | View _ | Post_entry _ -> ()
  | Upload_photo id ->
      Queue.push id m.photos.(v);
      m.newest.(v) <- id
  | Delete_photo _ -> ignore (Queue.pop m.photos.(v))
  | Add_friend f ->
      if not (List.mem f m.friends.(v)) then m.friends.(v) <- f :: m.friends.(v)
  | Remove_friend f -> m.friends.(v) <- List.filter (( <> ) f) m.friends.(v)
  | Comment { author; _ } ->
      if not (List.mem v m.commenters.(author)) then
        m.commenters.(author) <- v :: m.commenters.(author)

(* ---- request generation ---- *)

type gen = {
  w : workload;
  m : model;
  rng : Rng.t;
  soc : Populate.society;
  cookies : Headers.t array;
  mutable uploads : int;
}

let http g v action =
  let soc = g.soc and name i = g.m.names.(i) in
  let headers = g.cookies.(v) and client = name v in
  let get app params =
    Request.make ~headers ~client Request.GET
      (Uri.with_query ("/app/" ^ app) params)
  in
  let post app body =
    Request.make ~headers ~client ~body Request.POST ("/app/" ^ app)
  in
  match action with
  | View (Profile, t) -> get soc.Populate.social_id [ ("user", name t) ]
  | View (Photos, t) ->
      get soc.Populate.photo_id [ ("action", "list"); ("user", name t) ]
  | View (Blog, t) ->
      get soc.Populate.blog_id [ ("action", "read"); ("user", name t) ]
  | Upload_photo id ->
      post soc.Populate.photo_id
        [ ("action", "upload"); ("id", id); ("data", "pix-" ^ id) ]
  | Delete_photo id ->
      post soc.Populate.photo_id [ ("action", "delete"); ("id", id) ]
  | Post_entry { id; body } ->
      post soc.Populate.blog_id
        [ ("action", "post"); ("id", id); ("title", id); ("body", body) ]
  | Add_friend f ->
      post soc.Populate.social_id [ ("action", "add_friend"); ("friend", name f) ]
  | Remove_friend f ->
      post soc.Populate.social_id
        [ ("action", "remove_friend"); ("friend", name f) ]
  | Comment { author; entry; text } ->
      post soc.Populate.blog_id
        [ ("action", "comment"); ("user", name author); ("id", entry);
          ("text", text) ]

let make g v action =
  let expect, marker, shown = predict g.m ~viewer:v action in
  { viewer = v; action; expect; marker; shown; request = http g v action }

(* Uniform targets make most reads 403; real traffic mostly reads
   oneself and one's friends. *)
let target g v =
  let r = Rng.int g.rng 10 in
  if r < 2 then v
  else if r < 9 then
    match g.m.friends.(v) with [] -> v | fs -> Rng.pick g.rng fs
  else Rng.int g.rng g.w.users

let rec stranger g v =
  let u = Rng.int g.rng g.w.users in
  if u = v || List.mem u g.m.friends.(v) then stranger g v else u

let entry_id e = "b" ^ string_of_int e

let next g v =
  let m = g.m in
  let action =
    if m.delete_due.(v) then begin
      m.delete_due.(v) <- false;
      Delete_photo (Queue.peek m.photos.(v))
    end
    else
      match Rng.pick_weighted g.rng g.w.mix with
      | Read r -> View (r, target g v)
      | Upload ->
          g.uploads <- g.uploads + 1;
          m.delete_due.(v) <- true;
          Upload_photo ("u" ^ string_of_int g.uploads)
      | Post ->
          let id = entry_id (Rng.int g.rng g.w.entries) in
          Post_entry { id; body = Rng.string g.rng ~length:g.w.entry_bytes }
      | Befriend ->
          (* keep each user's degree near twice the picks *)
          let fs = m.friends.(v) and target = 2 * g.w.picks in
          let d = List.length fs in
          if fs <> [] && (d > target || (d = target && Rng.bool g.rng)) then
            Remove_friend (Rng.pick g.rng fs)
          else Add_friend (stranger g v)
  in
  make g v action

(* ---- the oracle ---- *)

exception Leak of string

(* Allocation-free, because it runs between timed requests and its
   garbage would be collected inside the next one. *)
let contains hay needle =
  let n = String.length hay and k = String.length needle in
  let rec at i j = j = k || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec from i = i + k <= n && (at i 0 || from (i + 1)) in
  from 0

(* [true] when the response is the predicted one. Raises [Leak] when it
   shows a canary whose owner does not admit the viewer. *)
let verify g r (resp : Response.t) =
  let body = resp.Response.body in
  let owners =
    if contains body "CANARY-" then Soak.canary_owners body else []
  in
  List.iter
    (fun o ->
      match Hashtbl.find_opt g.m.index o with
      | Some i when sees g.m ~viewer:r.viewer i -> ()
      | Some _ | None ->
          raise (Leak (Printf.sprintf "%s was shown %s's canary"
                         g.m.names.(r.viewer) o)))
    owners;
  Response.status_code resp.Response.status = r.expect
  && contains body r.marker && owners = r.shown

(* ---- set-up: populate, log in, seed ---- *)

let cookie_of client =
  Headers.set Headers.empty "Cookie"
    (String.concat "; "
       (List.map (fun (k, v) -> k ^ "=" ^ v) (Client.cookies client)))

let seed_world w soc cookies rng =
  let platform = soc.Populate.platform in
  let names = Array.of_list soc.Populate.users in
  let index = Hashtbl.create w.users in
  Array.iteri (fun i n -> Hashtbl.replace index n i) names;
  let m =
    {
      names;
      index;
      friends = Array.make w.users [];
      photos = Array.init w.users (fun _ -> Queue.create ());
      newest = Array.make w.users "";
      delete_due = Array.make w.users false;
      commenters = Array.make w.users [];
    }
  in
  let g = { w; m; rng; soc; cookies; uploads = 0 } in
  (* Friend lists and canaries are written provider-side, the way a
     user's settings page would. *)
  List.iter
    (fun (user, fs) ->
      let account = Platform.account_exn platform user in
      let write file record =
        match Platform.write_user_record platform account ~file record with
        | Ok () -> ()
        | Error e ->
            failwith ("seed: " ^ user ^ ": " ^ W5_os.Os_error.to_string e)
      in
      m.friends.(Hashtbl.find index user) <- List.map (Hashtbl.find index) fs;
      write "friends" (Record.set_list Record.empty "friends" fs);
      write "profile"
        (Record.of_fields
           [ ("user", user); ("display", user); ("canary", Soak.canary user) ]))
    (Populate.random_friend_graph rng ~users:soc.Populate.users
       ~friends_per_user:w.picks);
  (* Content goes through the applications, as users would post it. *)
  let send v action =
    let r = make g v action in
    if not (verify g r (Gateway.handler platform r.request)) then
      failwith ("seed: request by " ^ names.(v) ^ " failed");
    apply m r
  in
  for v = 0 to w.users - 1 do
    for p = 0 to w.photos - 1 do
      send v (Upload_photo ("p" ^ string_of_int p))
    done;
    for e = 0 to w.entries - 1 do
      send v
        (Post_entry
           { id = entry_id e; body = Rng.string rng ~length:w.entry_bytes })
    done
  done;
  for author = 0 to w.users - 1 do
    for e = 0 to w.entries - 1 do
      List.iter
        (fun c ->
          send c
            (Comment
               { author; entry = entry_id e; text = Rng.string rng ~length:40 }))
        (Rng.sample rng w.commenters m.friends.(author))
    done
  done;
  g

(* Returns the world and the populate, login and seed times in ns. *)
let setup w ~seed =
  let t0 = now () in
  let soc =
    Populate.build ~seed ~users:w.users ~friends_per_user:0 ~photos_per_user:0
      ~blog_posts_per_user:0 ()
  in
  let t1 = now () in
  let cookies =
    Array.of_list
      (List.map (fun u -> cookie_of (Populate.login soc u)) soc.Populate.users)
  in
  let t2 = now () in
  let g = seed_world w soc cookies (Rng.create ~seed) in
  let t3 = now () in
  (g, [| t1 - t0; t2 - t1; t3 - t2 |])

(* ---- layer counters, read from outside ---- *)

(* Every counter total the per-layer metrics need, at one instant. *)
let counters kernel =
  let dump = Metrics.dump (Kernel.metrics kernel) in
  let total ?(only = fun _ -> true) name =
    match List.find_opt (fun s -> s.Metrics.sample_name = name) dump with
    | None -> 0
    | Some s ->
        List.fold_left
          (fun acc (labels, point) ->
            if not (only labels) then acc
            else
              match point with
              | Metrics.Value v -> acc + v
              | Metrics.Histo { sum; _ } -> acc + sum)
          0 s.Metrics.sample_series
  in
  let deny = List.mem ("decision", "deny") in
  let memo f =
    List.fold_left (fun acc s -> acc + f s) 0 (W5_difc.Memo.snapshots ())
  in
  [
    ("syscalls", total "w5_syscalls_total");
    ("ticks", Kernel.tick kernel);
    ("spawns", total "w5_proc_spawns_total");
    ("quota_kills", total "w5_quota_kills_total");
    ("audit_events", total "w5_audit_events_total");
    ("flow_checks", total "w5_flow_checks_total");
    ("flow_denials", total ~only:deny "w5_flow_checks_total");
    ("cache_hits", memo (fun s -> s.W5_difc.Memo.hits));
    ("cache_lookups", memo (fun s -> s.W5_difc.Memo.hits + s.W5_difc.Memo.misses));
    ("gates", total "w5_gate_invocations_total");
    ("exports", total "w5_exports_total");
    ("export_denials", total ~only:deny "w5_exports_total");
    ("store_ops", total "w5_store_ops_total");
    ("rows_scanned", total "w5_store_rows_scanned_total");
    ("rows_returned", total "w5_store_query_rows");
    ("index_hits", total "w5_store_index_hits_total");
  ]

(* ---- host speed ----

   The host this benchmark was written on alternates, for seconds to
   minutes at a time, between full speed and up to half speed, whatever
   runs on it. Three fixed kernels that share nothing with W5 measure
   how slow the host is right now: building and searching a small map
   and hash table, integer arithmetic, and strided reads over 16 MiB
   outside the OCaml heap. Each is timed at its best of three and
   divided by its time on that host when quiet; the slowdown is the
   geometric mean of the three ratios. *)

module Int_map = Map.Make (Int)

let probe_array =
  let a = Bigarray.(Array1.create int c_layout (1 lsl 21)) in
  Bigarray.Array1.fill a 0;
  a

let kernels =
  [
    ( 1_000_000.,
      fun () ->
        let tbl = Hashtbl.create 1024 and m = ref Int_map.empty in
        for i = 0 to 2047 do
          Hashtbl.replace tbl (i * 7919 land 4095) (string_of_int i);
          m := Int_map.add (i * 104729 land 8191) i !m
        done;
        let sum = ref 0 in
        for i = 0 to 4095 do
          (match Hashtbl.find_opt tbl i with
          | Some x -> sum := !sum + String.length x
          | None -> ());
          match Int_map.find_opt i !m with Some x -> sum := !sum + x | None -> ()
        done;
        !sum );
    ( 500_000.,
      fun () ->
        let sum = ref 0 in
        for i = 0 to 300_000 do
          sum := ((!sum * 31) + i) land 0xffffff
        done;
        !sum );
    ( 470_000.,
      fun () ->
        let sum = ref 0 and j = ref 0 in
        for _ = 0 to 100_000 do
          j := (!j + 4099) land ((1 lsl 21) - 1);
          sum := !sum + Bigarray.Array1.unsafe_get probe_array !j
        done;
        !sum );
  ]

let slowdown () =
  let timed k =
    let t0 = now () in
    ignore (Sys.opaque_identity (k ()));
    now () - t0
  in
  let log_ratio acc (quiet, k) =
    let best = min (timed k) (min (timed k) (timed k)) in
    acc +. log (float best /. quiet)
  in
  exp (List.fold_left log_ratio 0. kernels /. float (List.length kernels))

(* [f ()], and the host's slowdown averaged over just before and after. *)
let slowdown_around f =
  let s0 = slowdown () in
  let x = f () in
  (x, (s0 +. slowdown ()) /. 2.)

(* ---- the timed loop ---- *)

(* A growable int buffer outside the OCaml heap, so that keeping every
   sample never shows in [peak_heap_mb]. *)
type buf = {
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
}

let buf () = { data = Bigarray.(Array1.create int c_layout 65536); len = 0 }

let add b x =
  if b.len = Bigarray.Array1.dim b.data then begin
    let bigger = Bigarray.(Array1.create int c_layout (2 * b.len)) in
    Bigarray.Array1.(blit b.data (sub bigger 0 b.len));
    b.data <- bigger
  end;
  b.data.{b.len} <- x;
  b.len <- b.len + 1

(* A stretch of the measured interval, with the host's slowdown at its
   two ends. *)
type window = { first : int; samples : int; ns : int; slowdown : float }

(* A step is one request, or one wave of them. *)
type acc = {
  lat : buf;  (** request latencies in ns, in arrival order *)
  mutable steps : int;
  mutable failed : int;
  mutable bytes : int;  (** response bodies *)
  (* traced steps add phase timers; untraced ones measure what they cost *)
  mutable t_req : int;
  mutable t_ns : int;
  mutable u_req : int;
  mutable u_ns : int;
  mutable submit : int;
  mutable run : int;
  mutable conclude : int;
  mutable alloc : int;  (** words *)
  mutable minors : int;
  mutable majors : int;
  mutable windows : window list;  (** closed, newest first *)
  mutable w_first : int;
  mutable w_ns : int;  (** step time of the open window *)
  mutable w_slowdown : float;  (** the host's when it opened *)
}

let fresh () =
  { lat = buf (); steps = 0; failed = 0; bytes = 0; t_req = 0; t_ns = 0;
    u_req = 0; u_ns = 0; submit = 0; run = 0; conclude = 0; alloc = 0;
    minors = 0; majors = 0; windows = []; w_first = 0; w_ns = 0;
    w_slowdown = 1. }

let stepped a ns =
  a.steps <- a.steps + 1;
  a.w_ns <- a.w_ns + ns

let untraced a ~requests ns =
  stepped a ns;
  a.u_req <- a.u_req + requests;
  a.u_ns <- a.u_ns + ns

let traced a ~requests ~t0 ~t1 ~t2 ~t3 (s0 : Gc.stat) (s1 : Gc.stat) =
  stepped a (t3 - t0);
  a.t_req <- a.t_req + requests;
  a.t_ns <- a.t_ns + (t3 - t0);
  a.submit <- a.submit + (t1 - t0);
  a.run <- a.run + (t2 - t1);
  a.conclude <- a.conclude + (t3 - t2);
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  a.alloc <- a.alloc + int_of_float (words s1 -. words s0);
  a.minors <- a.minors + (s1.minor_collections - s0.minor_collections);
  a.majors <- a.majors + (s1.major_collections - s0.major_collections)

let close_window a =
  let s = slowdown () in
  a.windows <-
    { first = a.w_first; samples = a.lat.len - a.w_first; ns = a.w_ns;
      slowdown = (a.w_slowdown +. s) /. 2. }
    :: a.windows;
  a.w_first <- a.lat.len;
  a.w_ns <- 0;
  a.w_slowdown <- s

let check g a r resp =
  a.bytes <- a.bytes + String.length resp.Response.body;
  if not (verify g r resp) then a.failed <- a.failed + 1

(* One client, one request at a time. *)
let one g a ~trace =
  let platform = g.soc.Populate.platform in
  let r = next g (Rng.int g.rng g.w.users) in
  let s0 = if trace then Some (Gc.quick_stat ()) else None in
  let t0 = now () in
  let p = Gateway.submit platform r.request in
  let t1 = if trace then now () else 0 in
  Kernel.run (Platform.kernel platform);
  let t2 = if trace then now () else 0 in
  let resp = Gateway.conclude platform p in
  let t3 = now () in
  (match s0 with
  | Some s0 -> traced a ~requests:1 ~t0 ~t1 ~t2 ~t3 s0 (Gc.quick_stat ())
  | None -> untraced a ~requests:1 (t3 - t0));
  add a.lat (t3 - t0);
  check g a r resp;
  apply g.m r

(* Every user sends one request; the wave arrives at once, one seeded
   scheduler drains it, and it is concluded in order. A request's
   latency runs from the wave's arrival to its own conclusion.
   Predictions are made against the state before the wave, and the
   browse mix never changes a friend list, so the interleaving cannot
   change any status. *)
let wave g a sched ~trace =
  let platform = g.soc.Populate.platform in
  let rs = Array.init g.w.users (next g) in
  let s0 = if trace then Some (Gc.quick_stat ()) else None in
  let t0 = now () in
  let ps = Array.map (fun r -> Gateway.submit platform r.request) rs in
  let t1 = if trace then now () else 0 in
  Sched.drain sched;
  let t2 = if trace then now () else 0 in
  let resps =
    Array.map
      (fun p ->
        let resp = Gateway.conclude platform p in
        add a.lat (now () - t0);
        resp)
      ps
  in
  let t3 = now () in
  let requests = Array.length rs in
  (match s0 with
  | Some s0 -> traced a ~requests ~t0 ~t1 ~t2 ~t3 s0 (Gc.quick_stat ())
  | None -> untraced a ~requests (t3 - t0));
  Array.iteri (fun i r -> check g a r resps.(i)) rs;
  Array.iter (apply g.m) rs

(* Runs at least one step, until [stop]. A traced run times alternate
   blocks of steps, so the untraced blocks measure what the phase timers
   cost. With [window], the run is cut into windows on a grid of that
   many ns and the host is probed between them. *)
let drive ?window g sched ~trace ~stop =
  let a = fresh () in
  let block = if g.w.waves then 4 else 1024 in
  let close = ref max_int in
  Option.iter
    (fun ns ->
      a.w_slowdown <- slowdown ();
      close := now () + ns)
    window;
  let rec loop i =
    let trace = trace && i / block mod 2 = 0 in
    (match sched with
    | Some s -> wave g a s ~trace
    | None -> one g a ~trace);
    let over = stop a in
    (match window with
    | Some ns when over || now () >= !close ->
        close_window a;
        close := !close + ns
    | Some _ | None -> ());
    if not over then loop (i + 1)
  in
  loop 0;
  a

(* ---- metrics ---- *)

let ratio x y = if y = 0 then 0. else float x /. float y

let median xs =
  let s = List.sort compare xs in
  List.nth s (List.length s / 2)

(* Linear interpolation between the closest ranks. *)
let quantile sorted q =
  let n = Array.length sorted in
  let x = q *. float (n - 1) in
  let i = int_of_float x in
  if i + 1 >= n then sorted.(n - 1)
  else sorted.(i) +. ((x -. float i) *. (sorted.(i + 1) -. sorted.(i)))

type metric = { name : string; unit : string; value : float; count : bool }

let metric ?(count = false) name unit value = { name; unit; value; count }

let host_slowdown a =
  match a.windows with
  | [] -> 1.
  | ws -> median (List.map (fun w -> w.slowdown) ws)

(* A set-up is [(ns of populate, login, seed), slowdown]. *)
let setup_s setups f =
  median (List.map (fun (t, slowdown) -> float (f t) /. slowdown) setups) /. 1e9

(* Latency and throughput come from the windows that ran at 90% or more
   of the run's upper-quartile window speed, which drops host slowdowns
   too short for the probes to catch; each kept window's times are then
   divided by the host slowdown around it. A quiet run keeps nearly
   every window, scaled by about 1. The tail, which moves most with the
   host, is the median of the kept windows' 99th percentiles. *)
let end_to_end a ~peak_words ~setups =
  let speeds = Array.of_list (List.map (fun w -> ratio w.samples w.ns) a.windows) in
  Array.sort compare speeds;
  let floor = 0.9 *. quantile speeds 0.75 in
  let kept = List.filter (fun w -> ratio w.samples w.ns >= floor) a.windows in
  let sorted w =
    let s = Array.init w.samples (fun i -> float a.lat.data.{w.first + i} /. w.slowdown) in
    Array.sort compare s;
    s
  in
  let windows = List.map sorted kept in
  let pooled = Array.concat windows in
  Array.sort compare pooled;
  let ns = List.fold_left (fun acc w -> acc +. (float w.ns /. w.slowdown)) 0. kept in
  ( List.length kept,
    [
      metric "throughput_rps" "1/s" (float (Array.length pooled) /. (ns /. 1e9));
      metric "latency_p50_us" "us" (quantile pooled 0.5 /. 1e3);
      metric "latency_p99_us" "us"
        (median (List.map (fun s -> quantile s 0.99) windows) /. 1e3);
      metric "setup_s" "s" (setup_s setups (Array.fold_left ( + ) 0));
      metric "peak_heap_mb" "MiB"
        (float (peak_words * (Sys.word_size / 8)) /. 1048576.);
    ] )

let per_layer g a ~before ~after ~sched_stats ~setups =
  let n = a.lat.len in
  let d k = List.assoc k after - List.assoc k before in
  let per k = ratio (d k) n in
  let tenth = max 1 (n / 10) in
  let mean lo =
    let sum = ref 0 in
    for i = lo to lo + tenth - 1 do sum := !sum + a.lat.data.{i} done;
    ratio !sum tenth
  in
  let all = Array.init n (fun i -> float a.lat.data.{i}) in
  Array.sort compare all;
  let us ns = ratio ns a.t_req /. 1e3 in
  let (s0 : Sched.stats), (s1 : Sched.stats) = sched_stats in
  let c = metric ~count:true in
  [
    metric "gateway.submit_us" "us" (us a.submit);
    metric "gateway.submit_share" "ratio" (ratio a.submit a.t_ns);
    metric "kernel.run_us" "us" (us a.run);
    metric "kernel.run_share" "ratio" (ratio a.run a.t_ns);
    c "kernel.syscalls_per_req" "count/req" (per "syscalls");
    c "kernel.ticks_per_req" "ticks/req" (per "ticks");
    c "kernel.spawns_per_req" "count/req" (per "spawns");
    c "kernel.quota_kills" "count" (float (d "quota_kills"));
    c "audit.events_per_req" "count/req" (per "audit_events");
    c "difc.flow_checks_per_req" "count/req" (per "flow_checks");
    c "difc.flow_denials_per_req" "count/req" (per "flow_denials");
    c "difc.cache_lookups_per_req" "count/req" (per "cache_lookups");
    c "difc.cache_hit_ratio" "ratio" (ratio (d "cache_hits") (d "cache_lookups"));
    metric "perimeter.conclude_us" "us" (us a.conclude);
    metric "perimeter.conclude_share" "ratio" (ratio a.conclude a.t_ns);
    c "perimeter.gates_per_req" "count/req" (per "gates");
    c "perimeter.denied_share" "ratio" (ratio (d "export_denials") (d "exports"));
    c "perimeter.bytes_per_req" "B/req" (ratio a.bytes n);
    c "store.ops_per_req" "count/req" (per "store_ops");
    c "store.rows_scanned_per_req" "count/req" (per "rows_scanned");
    c "store.rows_returned_per_scanned" "ratio"
      (ratio (d "rows_returned") (d "rows_scanned"));
    c "store.index_hits_per_req" "count/req" (per "index_hits");
    metric "sched.wave_ms" "ms"
      (if g.w.waves then ratio (a.t_ns + a.u_ns) a.steps /. 1e6 else 0.);
    metric "sched.drain_share" "ratio"
      (if g.w.waves then ratio a.run a.t_ns else 0.);
    c "sched.slices_per_req" "count/req"
      (ratio (s1.Sched.slices - s0.Sched.slices) n);
    c "sched.preemptions_per_req" "count/req"
      (ratio (s1.Sched.preemptions - s0.Sched.preemptions) n);
    c "sched.max_runq" "count" (float s1.Sched.max_depth);
    (* GC accounting moves with where collections fall, which even the
       command line shifts, so these are not compared across runs *)
    metric "gc.alloc_words_per_req" "words/req" (ratio a.alloc a.t_req);
    metric "gc.minor_per_kreq" "count/kreq" (1e3 *. ratio a.minors a.t_req);
    metric "gc.major_per_kreq" "count/kreq" (1e3 *. ratio a.majors a.t_req);
    metric "setup.populate_s" "s" (setup_s setups (fun t -> t.(0)));
    metric "setup.seed_s" "s" (setup_s setups (fun t -> t.(2)));
    metric "setup.login_s" "s" (setup_s setups (fun t -> t.(1)));
    metric "run.drift" "ratio" (mean (n - tenth) /. mean 0);
    metric "run.latency_p999_us" "us" (quantile all 0.999 /. 1e3);
    metric "run.tracing_overhead" "ratio"
      (if a.u_req = 0 then 0. else ratio a.t_ns a.t_req /. ratio a.u_ns a.u_req);
    metric "run.host_slowdown" "ratio" (host_slowdown a);
  ]

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.name
              m.value m.unit)
          metrics))

(* ---- main ---- *)

(* The last world set up is the one measured. *)
let rec build w ~seed reps setups =
  let (g, t), slowdown = slowdown_around (fun () -> setup w ~seed) in
  let setups = (t, slowdown) :: setups in
  if reps = 1 then (g, setups)
  else begin
    Gc.full_major ();
    build w ~seed (reps - 1) setups
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and smoke = ref false and against = ref false in
  let usage =
    "e2e.exe --workload W --seed S [--seconds N] [--trace 0|1] [--smoke [--compare]]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W browse|post|commingled|burst");
      ("--seed", Arg.Set_int seed, "S seed of every generated input");
      ("--seconds", Arg.Set_int seconds, "N measured wall time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics");
      ("--smoke", Arg.Set smoke,
       " 1% of a full run, traced, printing only count metrics");
      ("--compare", Arg.Set against,
       " with --smoke: fail unless standard input holds the same report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  let smoke = !smoke in
  let g, setups = build w ~seed:!seed (if smoke then 1 else w.setups) [] in
  let platform = g.soc.Populate.platform in
  let kernel = Platform.kernel platform in
  let sched =
    if w.waves then Some (Sched.create ~policy:(Sched.Seeded !seed) kernel)
    else None
  in
  let sched_stats () =
    match sched with
    | Some s -> Sched.stats s
    | None ->
        { Sched.slices = 0; preemptions = 0; completed = 0; killed = 0;
          max_depth = 0 }
  in
  try
    (* Timed runs start in steady state: the audit log has truncated at
       least once, so its size no longer grows. *)
    let warm =
      drive g sched ~trace:false ~stop:(fun a ->
          if smoke then a.lat.len >= w.warmup / 100
          else a.lat.len >= w.warmup && Audit.evicted (Kernel.audit kernel) > 0)
    in
    let before = counters kernel and s0 = sched_stats () in
    let a =
      if smoke then
        drive g sched ~trace:true ~stop:(fun a -> a.lat.len >= w.length / 100)
      else
        let ns = !seconds * 1_000_000_000 in
        let deadline = now () + ns in
        drive ~window:(ns / 64) g sched ~trace:(!trace = 1) ~stop:(fun _ ->
            now () >= deadline)
    in
    let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let after = counters kernel and s1 = sched_stats () in
    (match
       Soak.unlabeled_canary_paths platform
         ~needles:(List.map Soak.canary g.soc.Populate.users)
     with
    | [] -> ()
    | path :: _ -> raise (Leak ("unlabeled canary in " ^ path)));
    let attempted = warm.lat.len + a.lat.len and failed = warm.failed + a.failed in
    let layers () =
      per_layer g a ~before ~after ~sched_stats:(s0, s1) ~setups
    in
    if smoke then begin
      let report =
        String.concat ""
          (Printf.sprintf "%s seed=%d attempted=%d failed=%d\n" w.name !seed
             attempted failed
          :: List.filter_map
               (fun m ->
                 if m.count then
                   Some (Printf.sprintf "%s %.6f %s\n" m.name m.value m.unit)
                 else None)
               (layers ()))
      in
      if failed > 0 then begin
        prerr_string report;
        exit 1
      end;
      if not !against then print_string report
      else if In_channel.input_all stdin <> report then begin
        prerr_string ("smoke: a second run counted different work:\n" ^ report);
        exit 1
      end
    end
    else begin
      Printf.printf "%s seed=%d requests=%d attempted=%d failed=%d error_rate=%g\n"
        w.name !seed a.lat.len attempted failed (ratio failed attempted);
      let metrics =
        if !trace = 1 then layers ()
        else begin
          let kept, metrics = end_to_end a ~peak_words ~setups in
          Printf.printf
            "  end-to-end metrics over %d of %d windows, host slowdown %.3f\n"
            kept (List.length a.windows) (host_slowdown a);
          metrics
        end
      in
      List.iter
        (fun m -> Printf.printf "  %-32s %14.4f %s\n" m.name m.value m.unit)
        metrics;
      print_endline (json ~correct:(failed = 0) ~attempted ~failed metrics)
    end
  with Leak what ->
    Printf.eprintf "LEAK (%s): %s\n" w.name what;
    exit 3
