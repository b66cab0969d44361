//! The assembled failure-resilient operating system.
//!
//! [`Os`] wires the microkernel, the device bus, the trusted server base
//! (PM, DS, RS) and the guarded services (VFS, MFS, INET, drivers) into
//! one deterministic simulation, and exposes the experimenter's controls:
//! run for a while, kill a driver like the paper's crash-simulation shell
//! script does (§7.1), request dynamic updates, inject binary faults
//! (§7.2), and read out metrics and traces.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use phoenix_ckpt::CheckpointStore;
use phoenix_drivers::chardrv::{AudioPort, PrinterPort, StreamDevice, StreamDriver};
use phoenix_drivers::libdriver::{Driver, DriverLogic, FaultPort};
use phoenix_drivers::net::{Dp8390Card, EthDriver, Nic, Rtl8139Card};
use phoenix_drivers::proto::drv;
use phoenix_drivers::{DiskDriver, KeyboardDriver, RamDiskDriver, ScsiCdDriver};
use phoenix_fault::chaos::ChaosPlan;
use phoenix_fault::mutate::{apply_random_fault, Mutation};
use phoenix_hw::chardev::{AudioDac, Printer, ScsiCdBurner};
use phoenix_hw::disk::{DiskDevice, DiskModel};
use phoenix_hw::dp8390::{Dp8390, Dp8390Config};
use phoenix_hw::rtl8139::{Rtl8139, Rtl8139Config};
use phoenix_hw::{Bus, Device, Uart, WireConfig};
use phoenix_kernel::authority::AuthorityUsage;
use phoenix_kernel::chaos::ChaosInterposer;
use phoenix_kernel::privileges::{IpcFilter, KernelCall, Privileges};
use phoenix_kernel::process::{Process, ProgramFactory};
use phoenix_kernel::system::{System, SystemConfig};
use phoenix_kernel::types::{DeviceId, Endpoint, Signal};
use phoenix_servers::fsfat::{self, Fat16};
use phoenix_servers::fsfmt::{self, FileSpec, Inode, Minix};
use phoenix_servers::libserver::ServerLogic;
use phoenix_servers::mfs::Volume;
use phoenix_servers::peer::FilePeer;
use phoenix_servers::policy::{PolicyParams, PolicyScript};
use phoenix_servers::rs::{ReincarnationServer, ServiceConfig};
use phoenix_servers::{
    DataStore, FaultPlane, FileServer, Inet, ProcessManager, Server, ServerFault, Vfs,
};
use phoenix_simcore::metrics::MetricsRegistry;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::TraceRing;

/// Kernel calls a block driver needs beyond the driver baseline: it moves
/// sector data through client-provided grants (`sys_safecopy`).
const BLOCK_DRIVER_CALLS: [KernelCall; 4] = [
    KernelCall::Devio,
    KernelCall::IrqCtl,
    KernelCall::IommuMap,
    KernelCall::SafeCopy,
];

/// Virtual time `boot` runs before returning, so services settle.
const BOOT_SETTLE: SimDuration = SimDuration::from_secs(2);

/// Fixed device ids / IRQ lines of the reference machine.
pub mod hwmap {
    use phoenix_kernel::types::DeviceId;

    /// Ethernet NIC.
    pub const NIC: DeviceId = DeviceId(1);
    /// NIC interrupt line.
    pub const NIC_IRQ: u8 = 9;
    /// SATA disk.
    pub const SATA: DeviceId = DeviceId(2);
    /// SATA interrupt line.
    pub const SATA_IRQ: u8 = 14;
    /// Floppy drive.
    pub const FLOPPY: DeviceId = DeviceId(3);
    /// Floppy interrupt line.
    pub const FLOPPY_IRQ: u8 = 6;
    /// Printer.
    pub const PRINTER: DeviceId = DeviceId(4);
    /// Printer interrupt line.
    pub const PRINTER_IRQ: u8 = 7;
    /// Audio DAC.
    pub const AUDIO: DeviceId = DeviceId(5);
    /// Audio interrupt line.
    pub const AUDIO_IRQ: u8 = 5;
    /// SCSI CD burner.
    pub const SCSI: DeviceId = DeviceId(6);
    /// SCSI interrupt line.
    pub const SCSI_IRQ: u8 = 11;
    /// UART / keyboard controller.
    pub const UART: DeviceId = DeviceId(7);
    /// UART interrupt line.
    pub const UART_IRQ: u8 = 3;
    /// Second SATA disk (the FAT volume of Fig. 5).
    pub const SATA2: DeviceId = DeviceId(8);
    /// Second SATA interrupt line.
    pub const SATA2_IRQ: u8 = 15;
}

/// Which NIC model the machine has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicKind {
    /// RealTek 8139 (Fig. 7 experiments).
    Rtl8139,
    /// DP8390 / NE2000 (the §7.2 fault-injection target).
    Dp8390,
}

/// Well-known service names.
pub mod names {
    /// The virtual file system server.
    pub const VFS: &str = "vfs";
    /// The file server.
    pub const MFS: &str = "mfs";
    /// The network server.
    pub const INET: &str = "inet";
    /// RTL8139 Ethernet driver.
    pub const ETH_RTL8139: &str = "eth.rtl8139";
    /// DP8390 Ethernet driver.
    pub const ETH_DP8390: &str = "eth.dp8390";
    /// SATA disk driver.
    pub const BLK_SATA: &str = "blk.sata";
    /// Floppy driver.
    pub const BLK_FLOPPY: &str = "blk.floppy";
    /// RAM disk driver.
    pub const BLK_RAM: &str = "blk.ram";
    /// Printer driver.
    pub const CHR_PRINTER: &str = "chr.printer";
    /// Audio driver.
    pub const CHR_AUDIO: &str = "chr.audio";
    /// SCSI CD driver.
    pub const CHR_SCSI: &str = "chr.scsi";
    /// Keyboard / serial input driver.
    pub const CHR_KBD: &str = "chr.kbd";
    /// Second SATA disk driver (the FAT volume).
    pub const BLK_SATA2: &str = "blk.sata2";
    /// The FAT file server (Fig. 5's second file server).
    pub const FAT: &str = "fat";
}

/// An intentionally excessive grant seeded into a registered program's
/// privilege table. Used by the least-authority audit's red-path tests:
/// the audit must report exactly these as POLA violations.
#[derive(Debug, Clone)]
pub enum OverGrant {
    /// Grant I/O access to an extra device.
    Device(DeviceId),
    /// Grant an extra IRQ line.
    Irq(u8),
    /// Allow IPC to an extra named destination.
    Ipc(String),
    /// Grant an extra kernel call.
    Call(KernelCall),
}

/// Builder for [`Os`].
pub struct OsBuilder {
    seed: u64,
    nic: Option<(NicKind, Rtl8139Config, Dp8390Config, WireConfig)>,
    disk: Option<DiskSpec>,
    fat_disk: Option<DiskSpec>,
    floppy: bool,
    chardevs: bool,
    checkpointing: bool,
    hot_standby: bool,
    adapt: Option<PolicyScript>,
    ramdisk_sectors: Option<u64>,
    heartbeat: Option<(SimDuration, u32)>,
    policy_overrides: Vec<(String, Option<PolicyScript>, Vec<String>)>,
    chaos: Option<ChaosPlan>,
    restart_budget: Option<(u32, SimDuration)>,
    deps_overrides: Vec<(String, Vec<String>)>,
    overgrants: Vec<(String, OverGrant)>,
    sentinels: bool,
}

impl Default for OsBuilder {
    fn default() -> Self {
        let base = PolicyParams::BASELINE;
        OsBuilder {
            seed: 2007,
            nic: None,
            disk: None,
            fat_disk: None,
            floppy: false,
            chardevs: false,
            checkpointing: false,
            hot_standby: false,
            adapt: None,
            ramdisk_sectors: None,
            heartbeat: Some((base.heartbeat_period, base.heartbeat_misses)),
            policy_overrides: Vec::new(),
            chaos: None,
            restart_budget: None,
            deps_overrides: Vec::new(),
            overgrants: Vec::new(),
            sentinels: true,
        }
    }
}

impl OsBuilder {
    /// Sets the root seed for all randomness in the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a NIC (with INET and a remote file-serving peer).
    pub fn with_network(mut self, kind: NicKind) -> Self {
        self.nic = Some((
            kind,
            Rtl8139Config::default(),
            Dp8390Config::default(),
            WireConfig::default(),
        ));
        self
    }

    /// Customizes the network stack (call after [`OsBuilder::with_network`]).
    pub fn network_tuning(
        mut self,
        rtl: Rtl8139Config,
        dp: Dp8390Config,
        wire: WireConfig,
    ) -> Self {
        if let Some((kind, ..)) = self.nic {
            self.nic = Some((kind, rtl, dp, wire));
        }
        self
    }

    /// Adds a SATA disk (with VFS and MFS) formatted with `files`.
    pub fn with_disk(mut self, sectors: u64, disk_seed: u64, files: Vec<FileSpec>) -> Self {
        self.disk = Some((sectors, disk_seed, files));
        self
    }

    /// Adds a second disk formatted as FAT16, served by the FAT file
    /// server at the `/fat/` mount (Fig. 5 shows MFS and FAT side by
    /// side, each over its own recoverable block driver).
    pub fn with_fat_disk(mut self, sectors: u64, disk_seed: u64, files: Vec<FileSpec>) -> Self {
        self.fat_disk = Some((sectors, disk_seed, files));
        self
    }

    /// Adds a floppy drive + driver.
    pub fn with_floppy(mut self) -> Self {
        self.floppy = true;
        self
    }

    /// Adds the character devices (printer, audio, SCSI burner) + drivers
    /// and VFS.
    pub fn with_chardevs(mut self) -> Self {
        self.chardevs = true;
        self
    }

    /// Enables the `phoenix-ckpt` subsystem (implies
    /// [`OsBuilder::with_chardevs`]): DS grows the checkpoint store, and
    /// the stream/input char drivers (printer, audio, keyboard) publish
    /// consumed-progress snapshots and replay-deduplicate logged
    /// requests after a restart. The CD burner stays uncheckpointed —
    /// its side effect is external and unrepeatable.
    pub fn with_checkpointing(mut self) -> Self {
        self.chardevs = true;
        self.checkpointing = true;
        self
    }

    /// Keeps a warm spare beside each stream character driver (printer,
    /// audio): RS spawns a dormant `standby.<name>` incarnation that
    /// continuously tails the primary's checkpoint record, and promotes
    /// it at detection time instead of cold-restarting (implies
    /// [`OsBuilder::with_checkpointing`]).
    pub fn with_hot_standby(mut self) -> Self {
        self = self.with_checkpointing();
        self.hot_standby = true;
        self
    }

    /// Installs a policy script whose `adapt` rules retune RS's policy
    /// parameters (heartbeat period, backoff, restart budget, complaint
    /// quorum) with deterministic clamped controllers driven by the
    /// observed failure record.
    pub fn adapt_policy(mut self, script: PolicyScript) -> Self {
        self.adapt = Some(script);
        self
    }

    /// Adds the trusted RAM disk driver of §6.2 footnote 1.
    pub fn with_ramdisk(mut self, sectors: u64) -> Self {
        self.ramdisk_sectors = Some(sectors);
        self
    }

    /// Overrides the policy of a single service (`None` = direct restart
    /// without script).
    pub fn service_policy(
        mut self,
        name: &str,
        policy: Option<PolicyScript>,
        params: Vec<String>,
    ) -> Self {
        self.policy_overrides
            .push((name.to_string(), policy, params));
        self
    }

    /// Sets the heartbeat period and miss threshold for all drivers.
    pub fn heartbeat(mut self, period: SimDuration, misses: u32) -> Self {
        self.heartbeat = Some((period, misses));
        self
    }

    /// Disables heartbeats.
    pub fn no_heartbeat(mut self) -> Self {
        self.heartbeat = None;
        self
    }

    /// Installs a chaos plan on the kernel IPC path, effective *after* the
    /// boot settle (boot itself is chaos-free so every run starts from the
    /// same healthy state).
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Sets the restart budget (max restarts per sliding window) for every
    /// guarded service.
    pub fn restart_budget(mut self, budget: u32, window: SimDuration) -> Self {
        self.restart_budget = Some((budget, window));
        self
    }

    /// Declares the components restarted alongside `name` when its restart
    /// storm escalates.
    pub fn service_deps(mut self, name: &str, deps: &[&str]) -> Self {
        self.deps_overrides.push((
            name.to_string(),
            deps.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Seeds a deliberately excessive grant into `service`'s registered
    /// privilege table (red-path testing of the least-authority audit).
    pub fn overgrant(mut self, service: &str, grant: OverGrant) -> Self {
        self.overgrants.push((service.to_string(), grant));
        self
    }

    /// Disables the fail-silent detection machinery: the kernel babble
    /// guard, RS's polling of it, and RS complaint arbitration. Server-
    /// side protocol sentinels still observe and complain, but nothing is
    /// restarted on their evidence — the crash-only baseline arm of the
    /// fail-silent campaign.
    pub fn without_sentinels(mut self) -> Self {
        self.sentinels = false;
        self
    }

    /// Builds and boots the OS.
    pub fn boot(self) -> Os {
        Os::boot(self)
    }
}

impl OsBuilder {
    /// Applies the per-service policy / dependency overrides to the
    /// service table.
    fn override_services(&self, services: &mut [ServiceConfig]) {
        for (name, policy, params) in &self.policy_overrides {
            if let Some(svc) = services.iter_mut().find(|s| s.program == *name) {
                svc.policy = policy.clone();
                svc.policy_params = params.clone();
            }
        }
        for (name, deps) in &self.deps_overrides {
            if let Some(svc) = services.iter_mut().find(|s| s.program == *name) {
                svc.deps = deps.clone();
            }
        }
    }
}

impl OverGrant {
    fn apply(&self, p: &mut Privileges) {
        match self {
            OverGrant::Device(dev) => {
                p.devices.insert(*dev);
            }
            OverGrant::Irq(line) => {
                p.irq_lines.insert(*line);
            }
            OverGrant::Ipc(dest) => {
                let mut names: BTreeSet<String> = match &p.ipc {
                    IpcFilter::AllowNamed(set) => set.clone(),
                    _ => BTreeSet::new(),
                };
                names.insert(dest.clone());
                p.ipc = IpcFilter::AllowNamed(names);
            }
            OverGrant::Call(call) => {
                p.kernel_calls.insert(*call);
            }
        }
    }
}

/// What the trusted base hands every program factory: the endpoints a
/// component is constructed against and the two fault-injection seams.
#[derive(Clone)]
struct Wiring {
    rs: Endpoint,
    ds: Endpoint,
    /// The server fault plane, with the crash-only subsystem on: every
    /// `Server<L>` shell then externalises its state and polls the plane.
    crash_only: Option<FaultPlane>,
    fault_port: FaultPort,
}

/// Builds one incarnation of a component.
type Build = Box<dyn Fn(&Wiring) -> Box<dyn Process>>;
/// A driver's service name, its device's bus slot and interrupt line.
type Slot = (&'static str, DeviceId, u8);
/// How every device driver is constructed on its slot.
type NewDriver<L> = fn(DeviceId, u8, FaultPort) -> L;
/// What `with_disk` / `with_fat_disk` recorded: sectors, seed, files.
type DiskSpec = (u64, u64, Vec<FileSpec>);

/// Everything boot knows about one guarded component: the §4
/// least-authority declaration (device, IRQ, privileges) and the §5
/// recovery declaration (the service-table entry) in one place.
struct Row {
    name: &'static str,
    hardware: Option<(DeviceId, u8, Box<dyn Device>)>,
    privileges: Privileges,
    build: Build,
    /// Recovery class, dependents, policy, heartbeat. Server-class rows
    /// are also the sticky names (a message to a dead incarnation is
    /// redirected to the live one, so applications holding the endpoint
    /// survive its microreboots) and RS's complainants.
    service: ServiceConfig,
    /// The `standby.<name>` warm spare RS keeps beside the primary.
    spare: Option<(Privileges, Build)>,
    /// VFS forwards requests to this component, so VFS may address it.
    vfs_routable: bool,
}

impl Row {
    /// A crash-only system server inside the `Server<L>` shell, under
    /// the name the server itself goes by: no heartbeat, direct restart,
    /// recursive microreboot ladder, open complaints, stall auditing.
    /// `deps` is the group rebooted with it at escalation level 2.
    fn server<L: ServerLogic + 'static>(
        privileges: Privileges,
        deps: Vec<String>,
        logic: impl Fn(&Wiring) -> L + 'static,
    ) -> Row {
        let name = L::NAMES.server;
        Row {
            name,
            hardware: None,
            privileges,
            build: Box::new(move |w| Box::new(Server::new(logic(w), w.ds, w.crash_only.as_ref()))),
            service: ServiceConfig::server(name).with_deps(deps),
            spare: None,
            vfs_routable: false,
        }
    }

    /// A driver on the shared libdriver loop, restarted directly (a
    /// [`OsBuilder::service_policy`] gives it a script) and pinged at the
    /// configured heartbeat.
    fn driver<L: DriverLogic + 'static>(
        cfg: &OsBuilder,
        name: &'static str,
        privileges: Privileges,
        logic: impl Fn(&Wiring) -> L + 'static,
    ) -> Row {
        let service = ServiceConfig::driver(name);
        Row {
            name,
            hardware: None,
            privileges,
            build: Box::new(move |w| Box::new(Driver::new(logic(w)))),
            service: match cfg.heartbeat {
                Some((period, misses)) => service.with_heartbeat(period, misses),
                None => service.without_heartbeat(),
            },
            spare: None,
            vfs_routable: false,
        }
    }

    /// INET over the Ethernet driver `eth`. Its IPC stays broad: it
    /// pushes socket data to whatever application opened the connection,
    /// and app names are dynamic.
    fn inet(eth: &'static str) -> Row {
        let privileges = Privileges::server().with_calls([KernelCall::SetAlarm]);
        Row::server(privileges, vec![eth.to_string()], move |w| {
            Inet::new(w.rs, eth)
        })
    }

    /// The Ethernet driver for card model `N`; it pushes received frames
    /// to INET.
    fn nic<N: Nic + 'static>(cfg: &OsBuilder, name: &'static str, card: Box<dyn Device>) -> Row {
        let (dev, irq) = (hwmap::NIC, hwmap::NIC_IRQ);
        let privileges =
            Privileges::driver(dev, irq).with_ipc(IpcFilter::named(["rs", names::INET]));
        Row {
            hardware: Some((dev, irq, card)),
            ..Row::driver(cfg, name, privileges, move |w| {
                EthDriver::<N>::new(dev, irq, w.fault_port.clone())
            })
        }
    }

    /// A driver for the register-level disk controllers. §6.2: disk
    /// drivers restart directly from the copy in RAM, not policy-driven —
    /// the script could not be read from the dead disk.
    fn disk(
        cfg: &OsBuilder,
        (name, dev, irq): Slot,
        disk: DiskDevice,
        new: NewDriver<DiskDriver>,
    ) -> Row {
        let privileges = Privileges::driver(dev, irq).with_calls(BLOCK_DRIVER_CALLS);
        Row {
            hardware: Some((dev, irq, Box::new(disk))),
            ..Row::driver(cfg, name, privileges, move |w| {
                new(dev, irq, w.fault_port.clone())
            })
        }
    }

    /// A block-backed file server of on-disk format `V` over its own
    /// SATA disk and recoverable driver (Fig. 5 shows MFS and FAT side
    /// by side): the server row, then the driver row.
    fn fs_stack<V: Volume + 'static>(
        cfg: &OsBuilder,
        driver: Slot,
        (sectors, seed, files): &DiskSpec,
        mkfs: fn(&mut DiskModel, &[FileSpec]) -> Vec<Inode>,
    ) -> [Row; 2] {
        let mut disk = DiskDevice::sata(*sectors, *seed);
        mkfs(disk.model_mut(), files);
        let privileges = Privileges::server()
            .with_ipc(IpcFilter::named(["ds", "rs", driver.0]))
            .with_calls([
                KernelCall::SafeCopy,
                KernelCall::SetGrant,
                KernelCall::SetAlarm,
            ]);
        let server = Row::server(privileges, vec![driver.0.to_string()], move |w| {
            FileServer::<V>::new(w.rs, driver.0)
        });
        [
            Row {
                vfs_routable: true,
                ..server
            },
            Row::disk(cfg, driver, disk, DiskDriver::sata),
        ]
    }

    /// The trusted RAM disk of §6.2 footnote 1. It has no device or IRQ:
    /// it serves requests out of `region` — dedicated physical memory,
    /// whose contents survive driver restarts — copying through client
    /// grants.
    fn ramdisk(cfg: &OsBuilder, region: &Rc<RefCell<Vec<u8>>>) -> Row {
        let mut privileges = Privileges::server()
            .with_ipc(IpcFilter::named(["rs"]))
            .with_calls([KernelCall::SafeCopy]);
        privileges.uid = 900;
        privileges.address_space = 256 * 1024;
        let region = Rc::clone(region);
        Row::driver(cfg, names::BLK_RAM, privileges, move |w| {
            RamDiskDriver::new(Rc::clone(&region), w.fault_port.clone())
        })
    }

    /// A character driver holding kernel calls `calls`; VFS routes
    /// `/dev/*` requests to it. With the checkpoint subsystem on, a
    /// driver that has a `checkpointed` mode runs in it and talks to DS
    /// (snapshot save/restore); the grant is added only then, so the
    /// least-authority audit of the plain configuration stays tight.
    fn chardev<L: DriverLogic + 'static>(
        cfg: &OsBuilder,
        (name, dev, irq): Slot,
        model: Box<dyn Device>,
        calls: &[KernelCall],
        new: NewDriver<L>,
        checkpointed: Option<fn(L, Endpoint) -> L>,
    ) -> Row {
        let checkpointed = checkpointed.filter(|_| cfg.checkpointing);
        let mut privileges = Privileges::driver(dev, irq).with_calls(calls.iter().copied());
        if checkpointed.is_some() {
            privileges = privileges.with_ipc(IpcFilter::named(["rs", "ds"]));
        }
        let logic = move |w: &Wiring| {
            let cold = new(dev, irq, w.fault_port.clone());
            match checkpointed {
                Some(mode) => mode(cold, w.ds),
                None => cold,
            }
        };
        Row {
            hardware: Some((dev, irq, model)),
            vfs_routable: true,
            ..Row::driver(cfg, name, privileges, logic)
        }
    }

    /// A stream character driver (printer, audio) and, with hot standby,
    /// its warm spare: same device authority as the primary plus the
    /// alarm call the tail-poll timer needs.
    fn stream<D: StreamDevice + 'static>(
        cfg: &OsBuilder,
        slot: Slot,
        model: Box<dyn Device>,
        calls: &[KernelCall],
    ) -> Row {
        let new: NewDriver<StreamDriver<D>> = StreamDriver::new;
        let checkpointed = StreamDriver::with_checkpointing;
        let mut row = Row::chardev(cfg, slot, model, calls, new, Some(checkpointed));
        if cfg.hot_standby {
            row.service = row.service.with_hot_standby();
            let mut privileges = row.privileges.clone();
            privileges.kernel_calls.insert(KernelCall::SetAlarm);
            let (_, dev, irq) = slot;
            let spare: Build = Box::new(move |w| {
                let cold = new(dev, irq, w.fault_port.clone());
                Box::new(Driver::new(cold.standby(w.ds)))
            });
            row.spare = Some((privileges, spare));
        }
        row
    }

    /// VFS in front of the `routable` rows: a closed, configuration-known
    /// set of servers and drivers, so its IPC allow-list and its
    /// dependents are read off the table. In front of a file server it
    /// holds one kernel call, `sys_magicgrant`: it grants a client's
    /// buffer to the file server, which copies file data straight into or
    /// out of it. A promoted spare keeps its standby kernel identity while
    /// serving under the primary's published name, so VFS may address it
    /// too.
    fn vfs<'a>(routable: impl Iterator<Item = &'a Row>) -> Row {
        let mut ipc = vec!["ds".to_string(), "rs".to_string()];
        let mut deps = Vec::new();
        for row in routable {
            ipc.push(row.name.to_string());
            if row.spare.is_some() {
                ipc.push(drv::spare_name(row.name));
            }
            if row.service.server {
                deps.push(row.name.to_string());
            }
        }
        let magic = (!deps.is_empty()).then_some(KernelCall::MagicGrant);
        let privileges = Privileges::server()
            .with_ipc(IpcFilter::named(ipc))
            .with_calls(magic);
        let has_fat = deps.iter().any(|d| d == names::FAT);
        Row::server(privileges, deps, move |w| {
            let vfs = Vfs::new(w.rs, names::MFS);
            if has_fat {
                vfs.with_fat(names::FAT)
            } else {
                vfs
            }
        })
    }

    /// The component table of configuration `cfg`, in service-table
    /// order: RS spawns in this order, so every digest depends on it.
    fn table(cfg: &OsBuilder, ramdisk: Option<&Rc<RefCell<Vec<u8>>>>) -> Vec<Row> {
        let mut rows = Vec::new();
        if let Some((kind, ..)) = &cfg.nic {
            rows.push(Row::inet(Os::driver_name(*kind)));
        }
        let vfs_slot = rows.len();
        if let Some(spec) = &cfg.disk {
            let sata = (names::BLK_SATA, hwmap::SATA, hwmap::SATA_IRQ);
            rows.extend(Row::fs_stack::<Minix>(cfg, sata, spec, fsfmt::mkfs));
        }
        if let Some(spec) = &cfg.fat_disk {
            let sata2 = (names::BLK_SATA2, hwmap::SATA2, hwmap::SATA2_IRQ);
            rows.extend(Row::fs_stack::<Fat16>(cfg, sata2, spec, fsfat::mkfs_fat));
        }
        if let Some((kind, rtl, dp, ..)) = &cfg.nic {
            let name = Os::driver_name(*kind);
            rows.push(match kind {
                NicKind::Rtl8139 => {
                    Row::nic::<Rtl8139Card>(cfg, name, Box::new(Rtl8139::new(rtl.clone())))
                }
                NicKind::Dp8390 => {
                    Row::nic::<Dp8390Card>(cfg, name, Box::new(Dp8390::new(dp.clone())))
                }
            });
        }
        if cfg.floppy {
            let floppy = (names::BLK_FLOPPY, hwmap::FLOPPY, hwmap::FLOPPY_IRQ);
            let disk = DiskDevice::floppy(cfg.seed);
            rows.push(Row::disk(cfg, floppy, disk, DiskDriver::floppy));
        }
        if let Some(region) = ramdisk {
            rows.push(Row::ramdisk(cfg, region));
        }
        if cfg.chardevs {
            // The printer and keyboard move bytes by programmed I/O only;
            // no DMA window, so no IommuMap (the audit flags it otherwise).
            let pio = [KernelCall::Devio, KernelCall::IrqCtl];
            let dma = [KernelCall::Devio, KernelCall::IrqCtl, KernelCall::IommuMap];
            let printer = (names::CHR_PRINTER, hwmap::PRINTER, hwmap::PRINTER_IRQ);
            let model = Box::new(Printer::new(32 * 1024));
            rows.push(Row::stream::<PrinterPort>(cfg, printer, model, &pio));
            let audio = (names::CHR_AUDIO, hwmap::AUDIO, hwmap::AUDIO_IRQ);
            let model = Box::new(AudioDac::new(176_400));
            rows.push(Row::stream::<AudioPort>(cfg, audio, model, &dma));
            // The CD burner has no checkpointed mode: its side effect is
            // external and unrepeatable.
            let scsi = (names::CHR_SCSI, hwmap::SCSI, hwmap::SCSI_IRQ);
            let model = Box::new(ScsiCdBurner::new(SimDuration::from_millis(300), 600_000));
            rows.push(Row::chardev(
                cfg,
                scsi,
                model,
                &dma,
                ScsiCdDriver::new,
                None,
            ));
            let kbd = (names::CHR_KBD, hwmap::UART, hwmap::UART_IRQ);
            rows.push(Row::chardev(
                cfg,
                kbd,
                Box::new(Uart::new()),
                &pio,
                KeyboardDriver::new,
                Some(KeyboardDriver::with_checkpointing),
            ));
        }
        if rows.iter().any(|r| r.vfs_routable) {
            let vfs = Row::vfs(rows.iter().filter(|r| r.vfs_routable));
            rows.insert(vfs_slot, vfs);
        }
        rows
    }
}

/// The running failure-resilient operating system.
pub struct Os {
    sys: System,
    bus: Bus,
    fault_port: FaultPort,
    fault_plane: FaultPlane,
    rs: Endpoint,
    nic_kind: Option<NicKind>,
    seed: u64,
    ramdisk_region: Option<Rc<RefCell<Vec<u8>>>>,
    ckpt_store: Option<Rc<RefCell<CheckpointStore>>>,
    next_util: u64,
}

impl Os {
    /// Starts building an OS.
    pub fn builder() -> OsBuilder {
        OsBuilder::default()
    }

    fn driver_name(kind: NicKind) -> &'static str {
        match kind {
            NicKind::Rtl8139 => names::ETH_RTL8139,
            NicKind::Dp8390 => names::ETH_DP8390,
        }
    }

    /// Name of the configured Ethernet driver service.
    pub fn eth_driver_name(&self) -> Option<&'static str> {
        self.nic_kind.map(Self::driver_name)
    }

    fn boot(cfg: OsBuilder) -> Os {
        let mut sys = System::new(SystemConfig {
            seed: cfg.seed,
            babble_guard: cfg.sentinels,
        });
        let mut bus = Bus::new();
        let fault_port = FaultPort::new();

        // ---------------- trusted base ----------------
        // DS boots first: PM checkpoints its reaper binding against it
        // when the subsystem is on. DS issues no kernel calls at all: it
        // only receives requests and notifies subscribers. Its IPC must
        // stay broad — subscribers are arbitrary processes (including
        // apps) registered at runtime.
        let ckpt_store = cfg
            .checkpointing
            .then(|| Rc::new(RefCell::new(CheckpointStore::new())));
        let mut data_store = DataStore::new();
        if let Some(store) = &ckpt_store {
            data_store = data_store.with_checkpoint_store(Rc::clone(store));
        }
        let ds = sys.spawn_boot(
            "ds",
            Privileges::server().with_calls([]),
            Box::new(data_store),
        );
        // The server fault plane: the microreboot campaign arms injected
        // defects (crash / stall / garble) against individual servers
        // here; an unarmed plane is inert.
        let fault_plane = FaultPlane::new();
        let crash_only = cfg.checkpointing.then(|| fault_plane.clone());
        let mut pm_privs = Privileges::process_manager();
        if cfg.checkpointing {
            // Checkpointing PM talks to DS (record snapshots); keep the
            // plain configuration's authority tight otherwise.
            pm_privs = pm_privs.with_ipc(IpcFilter::named(["rs", "ds"]));
        }
        let pm_server = Server::new(ProcessManager::new(), ds, crash_only.as_ref());
        let pm = sys.spawn_boot("pm", pm_privs.clone(), Box::new(pm_server));

        // ---------------- component table ----------------
        let ramdisk_region = cfg.ramdisk_sectors.map(RamDiskDriver::region);
        let rows = Row::table(&cfg, ramdisk_region.as_ref());
        let mut services = Vec::with_capacity(rows.len());
        let mut programs = Vec::with_capacity(rows.len());
        for row in rows {
            if let Some((dev, irq, model)) = row.hardware {
                bus.add_device(dev, irq, model);
            }
            if row.service.server {
                sys.mark_sticky(row.name);
            }
            services.push(match cfg.restart_budget {
                Some((budget, window)) => row.service.with_restart_budget(budget, window),
                None => row.service,
            });
            programs.push((row.name, row.privileges, row.build, row.spare));
        }
        sys.mark_sticky("pm");
        if let Some((.., wire)) = &cfg.nic {
            bus.attach_peer(hwmap::NIC, *wire, Box::new(FilePeer::default()));
        }
        cfg.override_services(&mut services);

        let mut rs_privs = Privileges::reincarnation_server();
        let mut rs_server =
            ReincarnationServer::new(pm, ds, services).with_sentinels(cfg.sentinels);
        if let Some(script) = cfg.adapt.clone() {
            rs_server = rs_server.with_adapt(script);
        }
        if cfg.checkpointing {
            // Recursive recovery: with the crash-only subsystem on, RS
            // guards PM itself, holding per-instance spawn/kill so it can
            // respawn the one component that normally spawns for it.
            rs_privs =
                rs_privs.with_calls([KernelCall::SetAlarm, KernelCall::Spawn, KernelCall::Kill]);
            rs_server = rs_server.with_pm_guard();
        }
        let rs = sys.spawn_boot("rs", rs_privs, Box::new(rs_server));

        // ---------------- program registry ----------------
        let wiring = Wiring {
            rs,
            ds,
            crash_only,
            fault_port: fault_port.clone(),
        };
        if cfg.checkpointing {
            // PM's replacement incarnations come from here: RS respawns
            // the program directly (sys_spawn) during recursive recovery.
            let plane = wiring.crash_only.clone();
            sys.register_program(
                "pm",
                pm_privs,
                Box::new(move || Box::new(Server::new(ProcessManager::new(), ds, plane.as_ref()))),
            );
        }
        for (name, privileges, build, spare) in programs {
            let w = wiring.clone();
            sys.register_program(name, privileges, Box::new(move || build(&w)));
            if let Some((privileges, build)) = spare {
                let w = wiring.clone();
                let name = drv::spare_name(name);
                sys.register_program(&name, privileges, Box::new(move || build(&w)));
            }
        }
        for (service, grant) in &cfg.overgrants {
            sys.adjust_program_privileges(service, |p| grant.apply(p));
        }

        let mut os = Os {
            sys,
            bus,
            fault_port,
            fault_plane,
            rs,
            nic_kind: cfg.nic.as_ref().map(|(kind, ..)| *kind),
            seed: cfg.seed,
            ramdisk_region,
            ckpt_store,
            next_util: 0,
        };
        os.run_for(BOOT_SETTLE);
        if let Some(plan) = cfg.chaos {
            os.set_chaos(Box::new(plan));
        }
        os
    }

    // ---------------- running ----------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sys.now()
    }

    /// Runs the system for `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.sys.now() + d;
        self.sys.run_until(&mut self.bus, t);
    }

    /// Polls `pred` every `step` of virtual time until it holds: checks
    /// before the first step and after each one, and gives up after
    /// `max_steps` steps. Returns whether `pred` held, so a timeout is
    /// `false` with exactly `max_steps * step` elapsed.
    pub fn run_until(
        &mut self,
        step: SimDuration,
        max_steps: u64,
        mut pred: impl FnMut(&mut Os) -> bool,
    ) -> bool {
        for _ in 0..max_steps {
            if pred(self) {
                return true;
            }
            self.run_for(step);
        }
        pred(self)
    }

    /// Runs until the event queue drains or `max_events` were dispatched.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        self.sys.run_until_idle(&mut self.bus, max_events)
    }

    // ---------------- observation ----------------

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.sys.metrics()
    }

    /// Mutable metrics access (harness annotations).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        self.sys.metrics_mut()
    }

    /// The execution trace.
    pub fn trace(&self) -> &TraceRing {
        self.sys.trace()
    }

    /// Number of trace events lost to ring eviction so far. Non-zero means
    /// a folded timeline may be missing episodes or phases.
    pub fn trace_dropped(&self) -> u64 {
        self.sys.trace().dropped()
    }

    /// Ring evictions broken down by the evicted event's kind, in kind
    /// order. Campaigns fossilize these as `trace.dropped.{kind}` gauges
    /// so a digest shows *which* kinds high-volume load pushed out —
    /// request noise is tolerable, recovery anchors are not.
    pub fn trace_dropped_by_kind(&self) -> Vec<(String, u64)> {
        self.sys
            .trace()
            .dropped_by_kind()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// Folds the current trace into per-recovery-episode phase timings
    /// (detection / repair / reintegration, §7.1).
    pub fn timeline(&self) -> phoenix_simcore::obs::Timeline {
        phoenix_simcore::obs::fold_timeline(self.sys.trace().events())
    }

    /// Endpoint of a live process by name.
    pub fn endpoint(&self, name: &str) -> Option<Endpoint> {
        self.sys.endpoint_by_name(name)
    }

    /// How many memory grants the named process holds open (0 if it is
    /// not running): VFS holds one per READ or WRITE in flight.
    pub fn grants_held(&self, name: &str) -> usize {
        self.endpoint(name)
            .map_or(0, |ep| self.sys.memory().grants_held(ep))
    }

    /// Whether a named process is currently alive.
    pub fn is_up(&self, name: &str) -> bool {
        self.endpoint(name).is_some()
    }

    /// Program version of a running service.
    pub fn running_version(&self, name: &str) -> Option<u32> {
        self.endpoint(name).and_then(|ep| self.sys.version_of(ep))
    }

    /// Typed access to a device model.
    pub fn device_mut<T: phoenix_hw::Device + 'static>(&mut self, dev: DeviceId) -> Option<&mut T> {
        self.bus.device_mut(dev)
    }

    /// Typed access to the remote peer.
    pub fn peer_mut<T: phoenix_hw::RemotePeer + 'static>(&mut self) -> Option<&mut T> {
        self.bus.peer_mut(hwmap::NIC)
    }

    /// The RAM disk backing region, if configured.
    pub fn ramdisk_region(&self) -> Option<Rc<RefCell<Vec<u8>>>> {
        self.ramdisk_region.clone()
    }

    /// The driver checkpoint store, if [`OsBuilder::with_checkpointing`]
    /// was set. Shared with DS: tests and benches inspect snapshots at
    /// rest here — or tamper with them to exercise the corrupt/stale
    /// rejection paths.
    pub fn ckpt_store(&self) -> Option<Rc<RefCell<CheckpointStore>>> {
        self.ckpt_store.clone()
    }

    /// Observed authority per component, as recorded by the kernel at its
    /// privilege-check hook points.
    pub fn authority_usage(&self) -> &AuthorityUsage {
        self.sys.authority_usage()
    }

    /// Declared privilege tables by stable name (live processes overlaid
    /// with the program registry).
    pub fn declared_privileges(&self) -> BTreeMap<String, Privileges> {
        self.sys.declared_privileges()
    }

    /// The set of components subject to the least-authority audit: the
    /// trusted boot base plus every registered program. Transient
    /// processes (applications, `service` utilities) are excluded — their
    /// privileges are per-instance, not part of the system's declared
    /// authority tables.
    pub fn audit_scope(&self) -> BTreeSet<String> {
        let mut scope: BTreeSet<String> =
            ["pm", "ds", "rs"].into_iter().map(str::to_string).collect();
        scope.extend(self.sys.registered_programs());
        scope
    }

    // ---------------- failure & admin controls ----------------

    /// Kills a process with SIGKILL in the name of an interactive user —
    /// exactly what the paper's crash-simulation script does with
    /// `kill -9` (§7.1). Returns `false` if no such process is running.
    pub fn kill_by_user(&mut self, name: &str) -> bool {
        match self.sys.endpoint_by_name(name) {
            Some(ep) => self.sys.kill_by_user(ep, Signal::Kill),
            None => false,
        }
    }

    /// Runs a `service` utility command against RS (like MINIX's
    /// `service(8)`). The utility is a short-lived trusted process.
    pub fn service_command(&mut self, mtype: u32, service: &str) {
        let rs = self.rs;
        let arg = service.to_string();
        self.next_util += 1;
        let name = format!("service-util-{}", self.next_util);
        struct Util {
            rs: Endpoint,
            mtype: u32,
            arg: String,
        }
        impl Process for Util {
            fn on_event(
                &mut self,
                ctx: &mut phoenix_kernel::system::Ctx<'_>,
                event: phoenix_kernel::process::ProcEvent,
            ) {
                match event {
                    phoenix_kernel::process::ProcEvent::Start => {
                        let _ = ctx.sendrec(
                            self.rs,
                            phoenix_kernel::types::Message::new(self.mtype)
                                .with_data(self.arg.clone().into_bytes()),
                        );
                    }
                    phoenix_kernel::process::ProcEvent::Reply { .. } => ctx.exit(0),
                    _ => {}
                }
            }
        }
        self.sys.spawn_boot(
            &name,
            Privileges::server()
                .with_ipc(IpcFilter::named(["rs"]))
                .with_calls([]),
            Box::new(Util { rs, mtype, arg }),
        );
    }

    /// Requests a user-initiated restart of a service (§5.1 input 3).
    pub fn service_restart(&mut self, service: &str) {
        self.service_command(phoenix_servers::proto::rs::RESTART, service);
    }

    /// Requests a dynamic update of a service (§5.1 input 6); register the
    /// new version first with [`Os::register_update`].
    pub fn service_update(&mut self, service: &str) {
        self.service_command(phoenix_servers::proto::rs::UPDATE, service);
    }

    /// Registers a new program version for a service (dynamic update).
    ///
    /// # Errors
    ///
    /// Fails if the program was never registered.
    pub fn register_update(
        &mut self,
        service: &str,
        factory: ProgramFactory,
    ) -> Result<u32, phoenix_kernel::types::KernelError> {
        self.sys.update_program(service, factory)
    }

    /// Spawns an application process with user privileges.
    pub fn spawn_app(&mut self, name: &str, app: Box<dyn Process>) -> Endpoint {
        self.sys.spawn_boot(name, Privileges::user(), app)
    }

    /// Spawns an application allowed to talk to extra servers (e.g. DS
    /// for the state-backup demo).
    pub fn spawn_app_with_ipc(
        &mut self,
        name: &str,
        app: Box<dyn Process>,
        allow: &[&str],
    ) -> Endpoint {
        let mut p = Privileges::user();
        p.ipc = IpcFilter::named(allow.iter().map(|s| s.to_string()));
        self.sys.spawn_boot(name, p, app)
    }

    /// Performs a BIOS-level hard reset of a device — the out-of-band
    /// recovery of a wedged card (§7.2).
    pub fn hard_reset_device(&mut self, dev: DeviceId) {
        self.bus.hard_reset(dev);
    }

    /// Installs directional chaos (partition / asymmetric loss) on the
    /// NIC's wire — the node-level network fault seam the fleet layer
    /// and targeted transport tests drive.
    pub fn set_wire_chaos(&mut self, chaos: phoenix_hw::WireChaos) {
        self.bus.set_wire_chaos(hwmap::NIC, chaos);
    }

    /// Heals the NIC wire (removes directional chaos).
    pub fn clear_wire_chaos(&mut self) {
        self.bus.clear_wire_chaos(hwmap::NIC);
    }

    /// Installs an IPC-fabric chaos interposer.
    pub fn set_chaos(&mut self, chaos: Box<dyn ChaosInterposer>) {
        self.sys.set_chaos(chaos);
    }

    /// Removes the chaos interposer; subsequent IPC is delivered faithfully.
    pub fn clear_chaos(&mut self) {
        self.sys.clear_chaos();
    }

    /// A fresh RNG stream for one injection. The per-injection salt keeps
    /// successive injections distinct while the whole campaign stays a
    /// pure function of the OS seed.
    fn injection_rng(&mut self, stream: &str) -> SimRng {
        let salt = self.sys.metrics().counter("campaign.rng_salt");
        self.sys.metrics_mut().incr("campaign.rng_salt");
        // analyze:allow(rng-construction): salted off the root seed, so the
        // injection stream is a pure function of (seed, injection index).
        SimRng::new(self.seed ^ (salt << 1)).fork(stream)
    }

    /// Injects one random binary fault (of the paper's seven types) into
    /// the *running* code of a driver (§7.2). Returns `None` if the driver
    /// has not published a code image.
    pub fn inject_fault(&mut self, driver: &str) -> Option<Mutation> {
        let code = self.fault_port.code_of(driver)?;
        let mut rng = self.injection_rng("inject");
        let mut code = code.borrow_mut();
        apply_random_fault(&mut code, &mut rng)
    }

    /// Arms one random injected defect (crash / wedge / garble) against a
    /// system server; the next event the server handles triggers it.
    /// Requires the server to have been built with a fault plane
    /// ([`OsBuilder::with_checkpointing`]); an un-attached name arms a
    /// cell nothing ever polls.
    pub fn inject_server_fault(&mut self, server: &str) -> ServerFault {
        let fault = match self.injection_rng("inject-server").range_u64(0..3) {
            0 => ServerFault::Crash,
            1 => ServerFault::Stall,
            _ => ServerFault::Garble,
        };
        self.fault_plane.arm(server, fault);
        fault
    }

    /// Arms a *specific* injected defect against a system server
    /// (targeted tests).
    pub fn inject_server_fault_of(&mut self, server: &str, fault: ServerFault) {
        self.fault_plane.arm(server, fault);
    }

    /// Injects a raw frame as if it arrived from the wire at the NIC —
    /// including garbage no peer would send (robustness testing).
    pub fn inject_rx_frame(&mut self, frame: Vec<u8>) {
        let chan = phoenix_hw::bus::wire_to_host_channel(hwmap::NIC);
        self.sys
            .schedule_external(SimDuration::from_micros(1), chan, frame);
    }

    /// Types bytes on the serial line / keyboard after `delay` (they land
    /// in the UART's hardware FIFO and interrupt the keyboard driver).
    pub fn type_input(&mut self, delay: SimDuration, bytes: Vec<u8>) {
        let chan = phoenix_hw::bus::wire_to_host_channel(hwmap::UART);
        self.sys.schedule_external(delay, chan, bytes);
    }

    /// Overwrites the running driver's hot code so its next request loops
    /// forever (deterministic stuck-driver injection for heartbeat tests).
    pub fn wedge_driver_in_loop(&mut self, driver: &str) -> bool {
        let Some(code) = self.fault_port.code_of(driver) else {
            return false;
        };
        let mut code = code.borrow_mut();
        if code.is_empty() {
            return false;
        }
        code[0] = phoenix_fault::encode(phoenix_fault::Instr::Jmp(0));
        true
    }

    /// Deterministically corrupts the running driver's checksum
    /// computation: the routine's accumulator is seeded with 1 instead of
    /// 0, so every request completes "successfully" with an off-by-one
    /// checksum echo. The classic fail-silent defect — nothing crashes,
    /// no heartbeat is missed, only the protocol sentinels can tell.
    pub fn garble_driver_checksum(&mut self, driver: &str) -> bool {
        let Some(code) = self.fault_port.code_of(driver) else {
            return false;
        };
        let mut code = code.borrow_mut();
        let zero = phoenix_fault::encode(phoenix_fault::Instr::MovImm(
            phoenix_drivers::routines::reg::RES,
            0,
        ));
        let one = phoenix_fault::encode(phoenix_fault::Instr::MovImm(
            phoenix_drivers::routines::reg::RES,
            1,
        ));
        // The first RES-zeroing instruction is the hot-path accumulator
        // init in every routine (see drivers::routines).
        let Some(slot) = code.iter().position(|&w| w == zero) else {
            return false;
        };
        code[slot] = one;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEP: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn run_until_checks_before_the_first_step() {
        let mut os = Os::builder().seed(1).boot();
        let t0 = os.now();
        assert!(os.run_until(STEP, 5, |_| true));
        assert_eq!(os.now(), t0, "a predicate that already holds costs no time");
    }

    #[test]
    fn run_until_times_out_after_exactly_max_steps() {
        let mut os = Os::builder().seed(1).boot();
        let t0 = os.now();
        let mut checks = 0;
        let held = os.run_until(STEP, 7, |_| {
            checks += 1;
            false
        });
        assert!(!held);
        assert_eq!(checks, 8, "once before each step and once after the last");
        assert_eq!(os.now().since(t0), STEP * 7);
    }

    #[test]
    fn run_until_stops_at_the_step_that_satisfies_the_predicate() {
        let mut os = Os::builder().seed(1).boot();
        let t0 = os.now();
        let deadline = t0 + STEP * 3;
        assert!(os.run_until(STEP, 100, |os| os.now() >= deadline));
        assert_eq!(os.now().since(t0), STEP * 3);
    }
}
