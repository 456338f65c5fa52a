(** Counters and summary statistics for experiments.

    Every subsystem (network, DSM, GC) records into a [registry]; the bench
    harness snapshots registries before/after a run to build the tables of
    EXPERIMENTS.md. *)

type registry

val create_registry : unit -> registry

val incr : registry -> ?by:int -> string -> unit
(** Bump the named counter (created at zero on first use). *)

val get : registry -> string -> int
(** Current value of a counter (0 if never bumped). *)

val reset : registry -> unit
(** Zero every counter. *)

val counters : registry -> (string * int) list
(** All counters, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list
  -> (string * int) list
(** Per-counter deltas ([after - before]); names absent on one side count
    as zero. *)

(** {1 Reservoir sampling}

    The one bounded sampler and percentile estimator behind
    {!Summary} and the per-window reservoirs of the time series. *)

val reservoir_offer : Rng.t -> float array -> n:int -> float -> unit
(** [reservoir_offer rng samples ~n x] offers [x] as the [n]-th sample
    (1-based, counting [x]) to the reservoir [samples] (Vitter's
    algorithm R): the first [Array.length samples] samples fill it in
    order, each later one replaces a uniformly drawn slot with
    probability [capacity / n].  The stored prefix is
    [min n (Array.length samples)].  Draws from [rng] only once full. *)

val percentile : float array -> len:int -> float -> float
(** [percentile samples ~len p]: the round-to-nearest-rank [p]-th
    percentile ([p] in [0,100]) of the first [len] samples; [0.] when
    [len = 0].  Sorts a copy. *)

(** Streaming summary of a sample (Welford's algorithm).

    Count, mean, stddev, min and max are exact for every sample ever
    [add]ed.  Percentiles are computed over a fixed-size reservoir
    (Vitter's algorithm R, capacity {!Summary.reservoir_capacity}) so a
    summary uses O(1) memory regardless of how many samples it absorbs;
    up to the capacity they are exact, beyond it they are an unbiased
    estimate.  Replacement decisions come from a private deterministic
    {!Rng} stream, so identical sample sequences always yield identical
    percentiles. *)
module Summary : sig
  type t

  val reservoir_capacity : int
  (** Number of samples retained for percentile estimation (1024). *)

  val create : ?seed:int -> unit -> t
  (** [seed] seeds the reservoir's private RNG (a fixed default keeps
      existing callers deterministic). *)

  val add : t -> float -> unit
  val n : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0,100]; exact up to
      {!reservoir_capacity} samples, reservoir-estimated beyond. *)
end
