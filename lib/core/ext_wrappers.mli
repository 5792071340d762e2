(** External function wrappers (§2.8, §3.1, §4.3).

    For every external function [e] the transformed program calls
    [e_efw], responsible for (1) the original behaviour and (2) the
    application-visible DPMR behaviour a transformed [e] would have:
    replica (and shadow) allocation, mimicked stores, load checks, and
    the rvSop/rvRopPtr return channel.  These are the "external code
    support library" of §2.8, implemented as runtime functions.

    Also provides the argv replication runtime of §3.1.1
    ([__dpmr_argv_r], [__dpmr_argv_s]). *)

(** Register every wrapper into a VM for the given design. *)
val register : mode:Config.mode -> Dpmr_vm.Vm.t -> unit
