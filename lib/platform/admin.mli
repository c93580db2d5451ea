(** Provider operations: the statistics a W5 operator watches.

    "The providers' entire purpose and business is to get these
    functions right" (§2) — so the provider needs to see, at a glance,
    which applications trip the enforcement machinery. Everything here
    is derived from the audit log, the kernel's meters and platform
    state; it reads no user data. *)

type app_stats = {
  app_id : string;
  installs : int;
  denials : int;
      (** flow/export denials in the retained log attributed to its
          processes *)
  quota_kills : int;     (** in the retained log *)
}

type report = {
  users : int;
  apps : int;
  requests_served : int;
  live_processes : int;
  total_processes_spawned : int;
      (** lifetime, from [w5_proc_spawns_total] *)
  audit_entries : int;   (** entries the bounded audit log retains *)
  audit_evicted : int;   (** entries it has discarded *)
  total_denials : int;   (** in the retained log *)
  export_denials : int;  (** in the retained log *)
  sessions_active : int;
  files : int;
  per_app : app_stats list;  (** sorted by descending denials *)
}

val collect : Platform.t -> report
(** Attribution: a denial or quota kill belongs to the application
    whose process raised it, matched through the audit log's pid
    against the [Spawned] entry that named the process after its app,
    in the same pass over the log. An entry whose [Spawned] entry the
    bounded log has already evicted counts only in the retained-log
    totals. *)

val render : report -> string
(** A plain-text operations summary. It says which counts cover only
    the retained log and how many entries the log has evicted. *)

val suspicious_apps : ?threshold:int -> report -> string list
(** Apps with at least [threshold] (default 3) denials — candidates
    for editorial review. *)
