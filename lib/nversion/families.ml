(** A no-op stub.  The end-to-end benchmark's driver still calls
    [ensure] and links this library; both go with the next benchmark
    change (ROADMAP item 8).  The diversities this library once
    registered are [Config.diversity] values (DESIGN.md §13). *)

(** Does nothing. *)
let ensure () = ()
