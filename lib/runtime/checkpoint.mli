(** Atomic, versioned checkpoints of a {!Qnet_core.Stem.Chain}: the
    latent state, the current and anchor parameters, the iterate
    history and the raw RNG state. The on-disk format is a
    little-endian binary codec with a magic tag, an explicit version
    word, and a trailing FNV-1a checksum; writes go to a temporary file
    that is renamed into place, so a crash mid-write can never destroy
    the previous good checkpoint. *)

type t = Qnet_core.Stem.checkpoint = {
  iteration : int;
  rng_state : int64 array;
  params : Qnet_core.Params.t;
  anchor : Qnet_core.Params.t;
  snapshot : Qnet_core.Event_store.snapshot;
  history : Qnet_core.Params.t array;
  llh : float array;
}
(** The chain's record, taken by {!Qnet_core.Stem.Chain.snapshot}. *)

val version : int
(** Current codec version (readers reject other versions). *)

val to_bytes : t -> string
val of_bytes : string -> (t, string) result

val save : path:string -> t -> unit
(** Atomic: encodes to [path ^ ".tmp"], then renames over [path].
    Raises [Sys_error] on I/O failure. *)

val load : path:string -> (t, string) result
(** Reads and decodes; [Error] on I/O failure, bad magic, version
    mismatch, checksum mismatch, or a malformed payload. Never
    raises. *)
