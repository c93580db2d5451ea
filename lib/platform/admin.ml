open W5_os

type app_stats = {
  app_id : string;
  installs : int;
  denials : int;
  quota_kills : int;
}

type report = {
  users : int;
  apps : int;
  requests_served : int;
  live_processes : int;
  total_processes_spawned : int;
  audit_entries : int;
  audit_evicted : int;
  total_denials : int;
  export_denials : int;
  sessions_active : int;
  files : int;
  per_app : app_stats list;
}

let collect platform =
  let kernel = Platform.kernel platform in
  let registry = Platform.registry platform in
  let log = Kernel.audit kernel in
  (* app processes are named by their app id at spawn, and a pid's
     [Spawned] entry precedes every entry it causes *)
  let pid_app = Hashtbl.create 64 in
  let denials_by_app = Hashtbl.create 16 in
  let kills_by_app = Hashtbl.create 16 in
  let bump table key =
    Hashtbl.replace table key
      (1 + Option.value (Hashtbl.find_opt table key) ~default:0)
  in
  let total_denials = ref 0 and export_denials = ref 0 in
  (* Audit.iter walks oldest-first without materializing the entry
     list — the log can hold tens of thousands of records. *)
  Audit.iter log
    ~f:(fun (entry : Audit.entry) ->
      match entry.Audit.event with
      | Audit.Spawned { child; name; _ } ->
          if App_registry.find registry name <> None then
            Hashtbl.replace pid_app child name
      | Audit.Flow_checked { decision = Error _; _ }
      | Audit.Label_changed { decision = Error _; _ } -> (
          incr total_denials;
          match Hashtbl.find_opt pid_app entry.Audit.pid with
          | Some app -> bump denials_by_app app
          | None -> ())
      | Audit.Export_attempted { decision = Error _; _ } ->
          incr total_denials;
          incr export_denials
      | Audit.Quota_hit _ -> (
          match Hashtbl.find_opt pid_app entry.Audit.pid with
          | Some app -> bump kills_by_app app
          | None -> ())
      | Audit.Flow_checked _ | Audit.Label_changed _
      | Audit.Export_attempted _ | Audit.Declassified _ | Audit.Tainted _
      | Audit.Object_labeled _ | Audit.Sync_applied _ | Audit.Sync_fault _
      | Audit.Sync_recovered _ | Audit.Gate_invoked _
      | Audit.Killed _ | Audit.App_note _ ->
          ());
  let per_app =
    List.map
      (fun app_id ->
        {
          app_id;
          installs = App_registry.installs registry app_id;
          denials =
            Option.value (Hashtbl.find_opt denials_by_app app_id) ~default:0;
          quota_kills =
            Option.value (Hashtbl.find_opt kills_by_app app_id) ~default:0;
        })
      (App_registry.list_ids registry)
    |> List.sort (fun a b ->
           match Int.compare b.denials a.denials with
           | 0 -> String.compare a.app_id b.app_id
           | c -> c)
  in
  {
    users = List.length (Platform.accounts platform);
    apps = List.length (App_registry.list_ids registry);
    requests_served = Platform.requests_served platform;
    live_processes = Kernel.live_process_count kernel;
    total_processes_spawned =
      W5_obs.Metrics.value (Kernel.meters kernel).Kernel.spawns;
    audit_entries = Audit.length log;
    audit_evicted = Audit.evicted log;
    total_denials = !total_denials;
    export_denials = !export_denials;
    sessions_active = W5_http.Session.active (Platform.sessions platform);
    files = Fs.total_files (Kernel.fs kernel);
    per_app;
  }

let render report =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "W5 provider report";
  line "------------------";
  line "users: %d  apps: %d  active sessions: %d" report.users report.apps
    report.sessions_active;
  line "requests served: %d  processes: %d live / %d spawned"
    report.requests_served report.live_processes report.total_processes_spawned;
  line "filesystem nodes: %d  audit entries: %d retained / %d evicted"
    report.files report.audit_entries report.audit_evicted;
  line "denials in the retained log: %d total (%d at the perimeter)"
    report.total_denials report.export_denials;
  line "";
  line "%-24s %9s %8s %6s   (denials and kills: retained log)" "app"
    "installs" "denials" "kills";
  List.iter
    (fun s ->
      line "%-24s %9d %8d %6d" s.app_id s.installs s.denials s.quota_kills)
    report.per_app;
  Buffer.contents buf

let suspicious_apps ?(threshold = 3) report =
  List.filter_map
    (fun s -> if s.denials >= threshold then Some s.app_id else None)
    report.per_app
