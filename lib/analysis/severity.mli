(** Finding severities and the shared severity→exit-code contract.

    `w5 vet`, `w5 health`, and the soak CLI all judge something and
    carry the worst finding in their exit code. This module is the
    single home of that mapping — previously each command restated it
    — and a unit test pins the 0/2/3/4 contract. Exit 1 stays reserved
    for tool errors (cmdliner parse failures, uncaught exceptions), so
    findings start at 2. *)

type t = Critical | High | Warning | Info

val rank : t -> int
(** [Info] = 0 rising to [Critical] = 3; use for sorting. *)

val name : t -> string
(** Lowercase wire name ("critical" … "info") — used by report
    renderers and metric label values, so it is a closed set. *)

val all : t list
(** Every severity, worst first. *)

val worst : t list -> t option
(** The worst severity present, [None] for an empty list. *)

val exit_code : t option -> int
(** The shared contract: no finding or worst [Info] → 0, [Warning] →
    2, [High] → 3, [Critical] → 4. *)

val of_health_severity : int -> t option
(** Adapter for {!W5_obs.Health.severity}'s integer scale: 0 → [None]
    (healthy), 1–2 → [Warning] (degraded), anything worse → [High]. *)
