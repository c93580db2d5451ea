(** Provider operations: the statistics a W5 operator watches.

    "The providers' entire purpose and business is to get these
    functions right" (§2) — so the provider needs to see, at a glance,
    which applications trip the enforcement machinery. Everything here
    is derived from the audit log and platform state; it reads no user
    data. *)

type app_stats = {
  app_id : string;
  installs : int;
  denials : int;      (** flow/export denials attributed to its processes *)
  quota_kills : int;
}

type report = {
  users : int;
  apps : int;
  requests_served : int;
  live_processes : int;
  total_processes_spawned : int;
  audit_entries : int;
  total_denials : int;
  export_denials : int;
  sessions_active : int;
  files : int;
  per_app : app_stats list;  (** sorted by descending denials *)
}

val collect : Platform.t -> report
(** Attribution: a denial or quota kill belongs to the application
    whose process raised it, matched through the audit log's pid
    against the [Spawned] entry that named the process after its app,
    in the same pass over the log. An entry whose [Spawned] entry the
    bounded log has already evicted counts only in the totals. *)

val render : report -> string
(** A plain-text operations summary. *)

val suspicious_apps : ?threshold:int -> report -> string list
(** Apps with at least [threshold] (default 3) denials — candidates
    for editorial review. *)
