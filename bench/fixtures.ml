(* Shared bench fixtures, built lazily.

   Every fixture is behind [lazy] and an accessor function: a group
   only pays for the worlds it actually touches, so `--only vet` no
   longer builds three societies, two federation meshes, and 111k
   synthetic audit entries first. CI smoke runs a few groups per job
   and this is most of their wall-clock.

   Fixtures shared by several groups live here exactly once
   (societies, the seeded query/index kernels, sync pair builder,
   dependency graphs) — the duplication these hoist used to be spread
   over the group sections of main.ml. *)

open W5_difc
open W5_platform

(* ---- societies and logged-in clients ---- *)

let society ~enforcing =
  W5_workload.Populate.build ~seed:17 ~enforcing ~users:10 ~friends_per_user:3
    ~photos_per_user:2 ~blog_posts_per_user:1 ()

let on_society_l = lazy (society ~enforcing:true)
let off_society_l = lazy (society ~enforcing:false)
let on_society () = Lazy.force on_society_l
let off_society () = Lazy.force off_society_l

let logged_in (s : W5_workload.Populate.society) user =
  W5_workload.Populate.login s user

let on_u0_name () = List.hd (on_society ()).W5_workload.Populate.users
let on_u1_name () = List.nth (on_society ()).W5_workload.Populate.users 1

let on_u0_l = lazy (logged_in (on_society ()) (on_u0_name ()))
let on_u0 () = Lazy.force on_u0_l

let off_u0_l =
  lazy
    (logged_in (off_society ())
       (List.hd (off_society ()).W5_workload.Populate.users))

let off_u0 () = Lazy.force off_u0_l

(* a viewer who is guaranteed to be u1's friend, and one who is not *)
let friends_of_u1_l =
  lazy
    (let platform = (on_society ()).W5_workload.Populate.platform in
     let account = Platform.account_exn platform (on_u1_name ()) in
     match Platform.read_user_record platform account ~file:"friends" with
     | Ok r -> (
         let friends = W5_store.Record.get_list r "friends" in
         let everyone = (on_society ()).W5_workload.Populate.users in
         let non_friend =
           List.find
             (fun u -> u <> on_u1_name () && not (List.mem u friends))
             (everyone @ [ "nobody" ])
         in
         match friends with
         | f :: _ -> (f, non_friend)
         | [] -> (on_u0_name (), non_friend))
     | Error _ -> (on_u0_name (), on_u0_name ()))

let friend_of_u1 () = fst (Lazy.force friends_of_u1_l)
let non_friend_of_u1 () = snd (Lazy.force friends_of_u1_l)

let friend_client_l = lazy (logged_in (on_society ()) (friend_of_u1 ()))
let friend_client () = Lazy.force friend_client_l

let stranger_client_l =
  lazy
    (if non_friend_of_u1 () = "nobody" then friend_client ()
     else logged_in (on_society ()) (non_friend_of_u1 ()))

let stranger_client () = Lazy.force stranger_client_l

(* ---- the silo baseline site ---- *)

let silo_l =
  lazy
    (let open W5_apps.Silo_baseline in
     let site = create_site "silo" in
     List.iter
       (fun i ->
         set_data site ~user:"amy"
           ~key:(Printf.sprintf "k%02d" i)
           ~value:(String.make 32 'v'))
       (List.init 10 Fun.id);
     site)

let silo () = Lazy.force silo_l

(* ---- kernels with bodies ---- *)

let spawn_on kernel name =
  match
    W5_os.Kernel.spawn kernel ~name
      ~owner:(W5_os.Kernel.kernel_principal kernel)
      ~labels:Flow.bottom ~caps:Capability.Set.empty
      ~limits:W5_os.Resource.unlimited (fun _ -> ())
  with
  | Ok proc -> { W5_os.Kernel.kernel; proc }
  | Error _ -> assert false

(* a kernel holding one 256-byte file, for syscall-level groups *)
let file_ctx () =
  let kernel = W5_os.Kernel.create () in
  let ctx = spawn_on kernel "bench" in
  (match
     W5_os.Syscall.create_file ctx "/bench-file" ~labels:Flow.bottom
       ~data:(String.make 256 'x')
   with
  | Ok () -> ()
  | Error _ -> assert false);
  ctx

(* ---- seeded store collections (query-taint) ---- *)

let query_sizes = [ 10; 100; 1000 ]

let query_kernel_l =
  lazy
    (let kernel = W5_os.Kernel.create () in
     let seed = spawn_on kernel "seed" in
     (match W5_store.Obj_store.init seed with
     | Ok () -> ()
     | Error _ -> assert false);
     (* one collection per size, with a tenth of the rows secret *)
     List.iter
       (fun n ->
         let collection = Printf.sprintf "c%d" n in
         (match
            W5_store.Obj_store.create_collection seed collection
              ~labels:Flow.bottom
          with
         | Ok () -> ()
         | Error _ -> assert false);
         List.iter
           (fun i ->
             let labels =
               if i mod 10 = 0 then
                 Flow.make
                   ~secrecy:
                     (Label.singleton
                        (Tag.fresh
                           ~name:(Printf.sprintf "row%d-%d" n i)
                           Tag.Secrecy))
                   ()
               else Flow.bottom
             in
             match
               W5_store.Obj_store.put seed ~collection
                 ~id:(Printf.sprintf "r%04d" i)
                 ~labels
                 (W5_store.Record.of_fields
                    [ ("from", (if i mod 3 = 0 then "bob" else "carol")) ])
             with
             | Ok () -> ()
             | Error _ -> assert false)
           (List.init n Fun.id))
       query_sizes;
     kernel)

let query_kernel () = Lazy.force query_kernel_l

(* ---- seeded indexed collections (query-index) ---- *)

let index_sizes = [ 10; 100; 1000; 10000 ]
let index_collection n = Printf.sprintf "qi%d" n

let index_kernel_l =
  lazy
    (let kernel = W5_os.Kernel.create () in
     let seed = spawn_on kernel "seed" in
     (match W5_store.Obj_store.init seed with
     | Ok () -> ()
     | Error _ -> assert false);
     List.iter
       (fun n ->
         let collection = index_collection n in
         (match
            W5_store.Obj_store.create_collection seed collection
              ~labels:Flow.bottom
          with
         | Ok () -> ()
         | Error _ -> assert false);
         W5_store.Index.declare seed ~collection ~field:"u"
           W5_store.Index.Equality;
         W5_store.Index.declare seed ~collection ~field:"score"
           W5_store.Index.Int_order;
         List.iter
           (fun i ->
             match
               W5_store.Obj_store.put seed ~collection
                 ~id:(Printf.sprintf "r%05d" i)
                 ~labels:Flow.bottom
                 (W5_store.Record.of_fields
                    [
                      ("u", Printf.sprintf "u%d" (i mod max 1 (n / 10)));
                      ("score", string_of_int i);
                    ])
             with
             | Ok () -> ()
             | Error _ -> assert false)
           (List.init n Fun.id))
       index_sizes;
     kernel)

let index_kernel () = Lazy.force index_kernel_l

(* ---- dependency graphs (pagerank, rank-ablation) ---- *)

let graph_of_size n =
  let rng = W5_workload.Rng.create ~seed:(n + 1) in
  let g = W5_rank.Depgraph.create () in
  List.iter
    (fun i ->
      let node = Printf.sprintf "m%d" i in
      W5_rank.Depgraph.add_node g node;
      if i > 0 then
        List.iter
          (fun _ ->
            let j = W5_workload.Rng.int rng i in
            let j = min j (W5_workload.Rng.int rng i) in
            W5_rank.Depgraph.add_edge g ~src:node ~dst:(Printf.sprintf "m%d" j))
          (List.init (min 3 i) Fun.id))
    (List.init n Fun.id);
  g

let graph_100_l = lazy (graph_of_size 100)
let graph_1000_l = lazy (graph_of_size 1000)
let graph_100 () = Lazy.force graph_100_l
let graph_1000 () = Lazy.force graph_1000_l

(* ---- federation links ---- *)

(* Two one-user providers joined by a converged link — the shared
   starting point of both federation groups. *)
let make_sync_pair ~prefix ~files =
  let side name =
    { W5_federation.Sync.platform = Platform.create ();
      provider_name = prefix ^ name }
  in
  let a = side "a" and b = side "b" in
  List.iter
    (fun (side : W5_federation.Sync.side) ->
      match
        Platform.signup side.W5_federation.Sync.platform ~user:"zoe"
          ~password:"pw"
      with
      | Ok _ -> ()
      | Error e -> failwith e)
    [ a; b ];
  match W5_federation.Sync.establish ~a ~b ~user:"zoe" ~files () with
  | Ok link ->
      ignore (W5_federation.Sync.sync link);
      (link, a)
  | Error e -> failwith e

let sync_pair_l = lazy (make_sync_pair ~prefix:"p" ~files:[ "profile"; "friends" ])
let sync_link () = fst (Lazy.force sync_pair_l)
let sync_side_a () = snd (Lazy.force sync_pair_l)

let faulty_pair_l = lazy (make_sync_pair ~prefix:"f" ~files:[ "profile" ])
let faulty_link () = fst (Lazy.force faulty_pair_l)
let faulty_side_a () = snd (Lazy.force faulty_pair_l)

(* ---- collaboration ---- *)

let collab_l =
  lazy
    (let platform = Platform.create () in
     let founder =
       match Platform.signup platform ~user:"founder" ~password:"pw" with
       | Ok a -> a
       | Error e -> failwith e
     in
     let member =
       match Platform.signup platform ~user:"member" ~password:"pw" with
       | Ok a -> a
       | Error e -> failwith e
     in
     let group =
       match Group.create platform ~founder ~name:"bench-circle" with
       | Ok g -> g
       | Error e -> failwith e
     in
     (match Group.add_member platform group ~user:"member" with
     | Ok () -> ()
     | Error e -> failwith e);
     List.iter
       (fun i ->
         match
           Group.post platform group ~author:founder
             ~id:(Printf.sprintf "seed%02d" i)
             ~body:"seeded post"
         with
         | Ok () -> ()
         | Error _ -> assert false)
       (List.init 20 Fun.id);
     (platform, group, founder, member))

let collab_platform () = let p, _, _, _ = Lazy.force collab_l in p
let collab_group () = let _, g, _, _ = Lazy.force collab_l in g
let collab_founder () = let _, _, f, _ = Lazy.force collab_l in f
let collab_member () = let _, _, _, m = Lazy.force collab_l in m

(* ---- scaling societies ---- *)

let scaling_societies_l =
  lazy
    (List.map
       (fun n ->
         ( n,
           W5_workload.Populate.build ~seed:23 ~users:n ~friends_per_user:3
             ~photos_per_user:1 ~blog_posts_per_user:1 () ))
       [ 5; 20 ])

let scaling_societies () = Lazy.force scaling_societies_l

(* ---- synthetic audit logs (provenance) ---- *)

(* A synthetic but representative audit log: a bounded population of
   processes, paths and tags generating the same event mix a provider
   sees (taints, checked flows, object labelings, declassifications,
   spawns, a denial and an export attempt per "request"). Sizes are
   the retained entry counts an explanation walks. *)
let synthetic_audit_log n =
  let log = W5_os.Audit.create ~capacity:n in
  let n_tags = 16 and n_paths = 64 and n_pids = 32 in
  let tags =
    Array.init n_tags (fun i ->
        Tag.fresh ~name:(Printf.sprintf "bench.tag%02d" i) Tag.Secrecy)
  in
  let label i = Label.singleton tags.(i mod n_tags) in
  let labels i = Flow.make ~secrecy:(label i) () in
  let path i = Printf.sprintf "/users/u%02d/file%02d" (i mod 8) (i mod n_paths) in
  let pid i = 1 + (i mod n_pids) in
  let record i ev = W5_os.Audit.record log ~tick:i ~pid:(pid i) ev in
  for i = 0 to n - 1 do
    match i mod 8 with
    | 0 ->
        record i
          (W5_os.Audit.Spawned
             { child = pid (i + 1); name = Printf.sprintf "app%02d" (i mod 12);
               labels = labels i })
    | 1 | 2 ->
        record i
          (W5_os.Audit.Tainted
             { op = "fs.read_taint"; subject = W5_os.Audit.File (path i);
               added = label i })
    | 3 ->
        record i
          (W5_os.Audit.Object_labeled
             { op = "fs.create"; path = path i; labels = labels i })
    | 4 ->
        record i
          (W5_os.Audit.Flow_checked
             { op = "fs.write"; src = labels i; dst = labels (i + 1);
               decision = Error (Flow.Secrecy_violation (label i));
               subject = W5_os.Audit.File (path i) })
    | 5 ->
        record i
          (W5_os.Audit.Declassified
             { tag = tags.(i mod n_tags); context = "declass/bench/friends" })
    | 6 ->
        record i
          (W5_os.Audit.Export_attempted
             { destination = "viewer's browser"; labels = labels i;
               decision = (if i mod 16 = 6 then
                             Error (Flow.Secrecy_violation (label i))
                           else Ok ()) })
    | _ ->
        record i
          (W5_os.Audit.Tainted
             { op = "ipc.recv"; subject = W5_os.Audit.Peer (pid (i + 3));
               added = label (i + 1) })
  done;
  log

let provenance_logs_l =
  lazy (List.map (fun n -> (n, synthetic_audit_log n)) [ 1_000; 10_000; 100_000 ])

let provenance_logs () = Lazy.force provenance_logs_l

(* ---- vet ecosystems ---- *)

let vet_platform modules =
  let platform = Platform.create () in
  List.iter
    (fun user ->
      match Platform.signup platform ~user ~password:"pw" with
      | Error e -> failwith ("bench: vet signup: " ^ e)
      | Ok account ->
          ignore
            (Declassifier.install_and_authorize platform ~account
               ~name:"friends" Declassifier.friends_only))
    [ "veta"; "vetb"; "vetc"; "vetd" ];
  ignore
    (W5_workload.Populate.fill_dependency_graph platform ~modules
       ~imports_per_module:3);
  platform

let vet_platforms_l =
  lazy (List.map (fun n -> (n, vet_platform n)) [ 10; 100; 1000 ])

let vet_platforms () = Lazy.force vet_platforms_l

(* ---- trace-health ---- *)

(* Two converged pairs distinguished only by whether their kernels
   trace: the delta between their steady-state rounds IS the
   context-propagation overhead. *)
let traced_pair_l =
  lazy
    (let link, a = make_sync_pair ~prefix:"tt" ~files:[ "profile" ] in
     let sa, sb = W5_federation.Sync.sides link in
     List.iter
       (fun (side : W5_federation.Sync.side) ->
         W5_obs.Tracer.set_enabled
           (W5_os.Kernel.tracer
              (Platform.kernel side.W5_federation.Sync.platform))
           true)
       [ sa; sb ];
     (link, a))

let traced_link () = fst (Lazy.force traced_pair_l)

let untraced_pair_l = lazy (make_sync_pair ~prefix:"tu" ~files:[ "profile" ])
let untraced_link () = fst (Lazy.force untraced_pair_l)

(* A synthetic two-provider forest for merge scaling: a third of the
   spans are home roots, a third their local children, a third remote
   continuations carrying contexts back at the home roots — every
   merge pass reattaches [n/3] subtrees over an [n]-span index. *)
let synthetic_trace n =
  let open W5_obs in
  let third = max 1 (n / 3) in
  let home =
    List.init third (fun i ->
        let root =
          Span.make ~id:(2 * i + 1) ~parent:None ~name:"sync.round"
            ~fields:[ ("peer", "remote") ] ~start_tick:(4 * i)
        in
        let child =
          Span.make ~id:(2 * i + 2)
            ~parent:(Some (2 * i + 1))
            ~name:"sync.export" ~fields:[] ~start_tick:(4 * i + 1)
        in
        Span.finish child ~tick:(4 * i + 2);
        Span.add_child root child;
        Span.finish root ~tick:(4 * i + 3);
        root)
  in
  let remote =
    List.init third (fun i ->
        let ctx =
          {
            Trace_context.trace_origin = "home";
            trace_root = 2 * i + 1;
            parent_origin = "home";
            parent_span = 2 * i + 1;
            origin_tick = 4 * i + 1;
          }
        in
        let span =
          Span.make ~id:(i + 1) ~parent:None ~name:"sync.apply"
            ~fields:(Trace_context.to_fields ctx)
            ~start_tick:i
        in
        Span.finish span ~tick:(i + 1);
        span)
  in
  [ ("home", home); ("remote", remote) ]

let synthetic_trace_1k_l = lazy (synthetic_trace 1_000)
let synthetic_trace_10k_l = lazy (synthetic_trace 10_000)
let synthetic_trace_1k () = Lazy.force synthetic_trace_1k_l
let synthetic_trace_10k () = Lazy.force synthetic_trace_10k_l

(* A loaded health model: 10x10 observer/peer mesh, 50 rounds each —
   the rollup cost `w5 health` pays per render. *)
let health_loaded_l =
  lazy
    (let h = W5_obs.Health.create ~window:4096 () in
     for o = 0 to 9 do
       for p = 0 to 9 do
         if o <> p then
           for round = 1 to 50 do
             W5_obs.Health.observe_round h
               ~observer:(Printf.sprintf "prov%02d" o)
               ~peer:(Printf.sprintf "prov%02d" p)
               ~tick:(round * 7) ~ok:true
               ~retries:(round mod 3)
               ~faults:(if round mod 5 = 0 then 1 else 0)
               ~timed_out:false ~recovered:0
           done
       done
     done;
     h)

let health_loaded () = Lazy.force health_loaded_l
