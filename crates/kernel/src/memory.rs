//! Process address spaces, memory grants, and the I/O MMU.
//!
//! §4 of the paper: processes live in private, hardware-protected address
//! spaces; selective sharing happens through *capabilities* describing a
//! precise memory area and access rights ("virtual copy"); DMA is made safe
//! by an I/O MMU window that the driver must explicitly set up via a kernel
//! call before programming the device.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use crate::types::{DeviceId, Endpoint, KernelError, Slot};

/// Access rights carried by a memory grant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrantAccess {
    /// Grantee may read the region.
    Read,
    /// Grantee may write the region.
    Write,
    /// Grantee may read and write the region.
    ReadWrite,
}

impl GrantAccess {
    fn allows_read(self) -> bool {
        matches!(self, GrantAccess::Read | GrantAccess::ReadWrite)
    }
    fn allows_write(self) -> bool {
        matches!(self, GrantAccess::Write | GrantAccess::ReadWrite)
    }
}

/// A capability referring to a region of the *granter's* memory — or, for
/// a magic grant, of the memory of the process the granter acts for.
///
/// Grant ids are only meaningful together with the granter's endpoint; a
/// granter restart invalidates all its grants because the endpoint
/// generation no longer matches, and an owner restart invalidates every
/// grant on its memory the same way.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GrantId(pub u32);

#[derive(Clone, Debug)]
struct Grant {
    /// Whose memory the grant names: the granter's own, or for a magic
    /// grant another process's, pinned to its incarnation.
    owner: Endpoint,
    grantee: Endpoint,
    offset: usize,
    len: usize,
    access: GrantAccess,
}

/// One process's private memory plus its outstanding grants.
///
/// `size` is the address space every bound is checked against; `mem` is
/// the prefix of it something has reached so far. The bytes from
/// `mem.len()` to `size` exist as far as any check can tell, were never
/// written, and read as zero — so a space costs the host what its process
/// touches, not what its privileges allow.
#[derive(Debug, Default)]
struct Space {
    mem: Vec<u8>,
    size: usize,
    owner: Option<Endpoint>,
    grants: BTreeMap<GrantId, Grant>,
    next_grant: u32,
}

impl Space {
    /// `range` of the space, which the caller has checked to end at or
    /// before `size`; the touched prefix grows, zero-filled, to reach it.
    fn touch(&mut self, range: Range<usize>) -> &mut [u8] {
        debug_assert!(range.end <= self.size);
        if self.mem.len() < range.end {
            self.mem.resize(range.end, 0);
        }
        &mut self.mem[range]
    }

    /// `offset..offset + len`, if it lies inside the space.
    fn range(&self, offset: usize, len: usize) -> Result<Range<usize>, KernelError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.size => Ok(offset..end),
            _ => Err(KernelError::BadRange),
        }
    }
}

/// An I/O MMU window authorizing one device to DMA into a region of one
/// process's address space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IommuWindow {
    /// The process whose memory is exposed.
    pub owner: Endpoint,
    /// Device-visible base address of the window.
    pub base: u64,
    /// Offset of the window within the owner's address space.
    pub offset: usize,
    /// Window length in bytes.
    pub len: usize,
}

/// DMA failures surfaced to device models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DmaFault {
    /// The device has no mapped window.
    NoWindow,
    /// The access fell outside the mapped window.
    OutOfWindow,
    /// The window's owning process has exited or restarted.
    StaleOwner,
}

impl fmt::Display for DmaFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DmaFault::NoWindow => "no IOMMU window mapped for device",
            DmaFault::OutOfWindow => "DMA access outside IOMMU window",
            DmaFault::StaleOwner => "IOMMU window owner is gone",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DmaFault {}

/// All process address spaces, grants, and IOMMU state, plus the
/// machine's spare frame buffers.
///
/// Owned by the kernel; device models reach it through [`crate::platform::HwCtx`]
/// so that every DMA access is IOMMU-checked.
///
/// The spare buffers are host memory only, out of sight of every process:
/// whoever makes a frame borrows one ([`MemoryPool::lend_buf`]) and
/// whoever consumes the frame hands it back ([`MemoryPool::return_buf`]),
/// so a frame that has gone round once costs no allocation (DESIGN §5x).
#[derive(Debug, Default)]
pub struct MemoryPool {
    spaces: Vec<Space>,
    iommu: BTreeMap<DeviceId, IommuWindow>,
    /// Returned buffers, each cleared, waiting to be lent again.
    spare: Vec<Vec<u8>>,
    /// Buffers lent and not yet returned.
    lent: usize,
}

impl MemoryPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lends a buffer of length 0: a spare one, with the capacity an
    /// earlier frame gave it, or a new one when none is spare.
    pub fn lend_buf(&mut self) -> Vec<u8> {
        self.lent += 1;
        self.spare.pop().unwrap_or_default()
    }

    /// Takes back a buffer whose frame was consumed, cleared, so its next
    /// holder never sees these bytes. A return while nothing is lent drops
    /// the buffer, so the spare list never holds more buffers than were
    /// lent at once; a buffer with no capacity has nothing to keep.
    pub fn return_buf(&mut self, mut buf: Vec<u8>) {
        if self.lent == 0 || buf.capacity() == 0 {
            return;
        }
        self.lent -= 1;
        buf.clear();
        self.spare.push(buf);
    }

    fn space(&self, slot: Slot) -> Option<&Space> {
        self.spaces.get(slot as usize)
    }

    fn space_mut(&mut self, slot: Slot) -> Option<&mut Space> {
        self.spaces.get_mut(slot as usize)
    }

    /// Attaches a fresh address space of `size` bytes for `owner`.
    pub fn attach(&mut self, owner: Endpoint, size: usize) {
        let idx = owner.slot() as usize;
        if self.spaces.len() <= idx {
            self.spaces.resize_with(idx + 1, Space::default);
        }
        self.spaces[idx] = Space {
            mem: Vec::new(),
            size,
            owner: Some(owner),
            grants: BTreeMap::new(),
            next_grant: 1,
        };
    }

    /// Tears down the address space of a dead process: memory freed, all its
    /// grants revoked, and any IOMMU windows it owned unmapped — so a device
    /// can never DMA into a recycled slot.
    pub fn detach(&mut self, owner: Endpoint) {
        if let Some(sp) = self.space_mut(owner.slot()) {
            if sp.owner == Some(owner) {
                *sp = Space::default();
            }
        }
        self.iommu.retain(|_, w| w.owner != owner);
    }

    fn live_space_of(&self, ep: Endpoint) -> Result<&Space, KernelError> {
        let sp = self.space(ep.slot()).ok_or(KernelError::BadEndpoint)?;
        if sp.owner == Some(ep) {
            Ok(sp)
        } else {
            Err(KernelError::BadEndpoint)
        }
    }

    fn live_space_of_mut(&mut self, ep: Endpoint) -> Result<&mut Space, KernelError> {
        let sp = self.space_mut(ep.slot()).ok_or(KernelError::BadEndpoint)?;
        if sp.owner == Some(ep) {
            Ok(sp)
        } else {
            Err(KernelError::BadEndpoint)
        }
    }

    /// Reads `len` bytes at `offset` from `ep`'s own memory.
    pub fn read_own(
        &mut self,
        ep: Endpoint,
        offset: usize,
        len: usize,
    ) -> Result<&[u8], KernelError> {
        let sp = self.live_space_of_mut(ep)?;
        let range = sp.range(offset, len)?;
        Ok(sp.touch(range))
    }

    /// Writes `data` at `offset` into `ep`'s own memory.
    pub fn write_own(
        &mut self,
        ep: Endpoint,
        offset: usize,
        data: &[u8],
    ) -> Result<(), KernelError> {
        let sp = self.live_space_of_mut(ep)?;
        let range = sp.range(offset, data.len())?;
        sp.touch(range).copy_from_slice(data);
        Ok(())
    }

    /// Size of `ep`'s address space.
    pub fn size_of(&self, ep: Endpoint) -> Result<usize, KernelError> {
        Ok(self.live_space_of(ep)?.size)
    }

    /// Creates a grant on `granter`'s memory for `grantee`.
    pub fn grant_create(
        &mut self,
        granter: Endpoint,
        grantee: Endpoint,
        offset: usize,
        len: usize,
        access: GrantAccess,
    ) -> Result<GrantId, KernelError> {
        self.magic_grant_create(granter, granter, grantee, offset, len, access)
    }

    /// Creates a *magic* grant (MINIX's `cpf_grant_magic`): a grant in
    /// `granter`'s table, for `grantee`, over `offset..offset + len` of
    /// `owner`'s memory. VFS makes one over a client's buffer so the file
    /// server copies file data straight into or out of it; the grant dies
    /// with either the granter or the owner incarnation.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadEndpoint`] when the granter or the owner is dead
    /// or restarted; [`KernelError::BadRange`] when the region leaves the
    /// owner's space.
    pub fn magic_grant_create(
        &mut self,
        granter: Endpoint,
        owner: Endpoint,
        grantee: Endpoint,
        offset: usize,
        len: usize,
        access: GrantAccess,
    ) -> Result<GrantId, KernelError> {
        self.live_space_of(owner)?.range(offset, len)?;
        let sp = self.live_space_of_mut(granter)?;
        let id = GrantId(sp.next_grant);
        sp.next_grant += 1;
        let grant = Grant {
            owner,
            grantee,
            offset,
            len,
            access,
        };
        sp.grants.insert(id, grant);
        Ok(id)
    }

    /// How many grants `granter`'s table holds; 0 for a dead endpoint.
    pub fn grants_held(&self, granter: Endpoint) -> usize {
        self.live_space_of(granter).map_or(0, |sp| sp.grants.len())
    }

    /// Revokes a grant previously created by `granter`.
    pub fn grant_revoke(&mut self, granter: Endpoint, id: GrantId) -> Result<(), KernelError> {
        let sp = self.live_space_of_mut(granter)?;
        sp.grants
            .remove(&id)
            .map(|_| ())
            .ok_or(KernelError::BadGrant)
    }

    /// The owner and the range of its space that `len` bytes at `offset`
    /// of (`granter`, `id`) name, if `caller` may move them in the
    /// direction `write` says. The checks run in a fixed order: the
    /// granter is live, the grant exists (not revoked), `caller` is its
    /// grantee, the access allows the direction, the range lies inside
    /// the grant, and last the owner incarnation is still live.
    fn check_grant(
        &self,
        granter: Endpoint,
        id: GrantId,
        caller: Endpoint,
        offset: usize,
        len: usize,
        write: bool,
    ) -> Result<(Endpoint, Range<usize>), KernelError> {
        let sp = self.live_space_of(granter)?;
        let g = sp.grants.get(&id).ok_or(KernelError::BadGrant)?;
        if g.grantee != caller {
            return Err(KernelError::BadGrant);
        }
        let ok = if write {
            g.access.allows_write()
        } else {
            g.access.allows_read()
        };
        if !ok {
            return Err(KernelError::BadGrant);
        }
        let end = offset.checked_add(len).ok_or(KernelError::BadRange)?;
        if end > g.len {
            return Err(KernelError::BadRange);
        }
        self.live_space_of(g.owner)?;
        let start = g.offset + offset;
        Ok((g.owner, start..start + len))
    }

    /// The copy under both SafeCopy calls: `len` bytes between
    /// (`granter`, `grant`) at `grant_offset` and `caller`'s own memory at
    /// `own_offset`, towards the grant when `to_grant`. Every check runs
    /// before a byte moves — the grant and its owner, then the caller's
    /// liveness, then the caller's range — and the bytes move once,
    /// straight from the owner's space into the caller's or back.
    #[allow(clippy::too_many_arguments)]
    fn copy_between(
        &mut self,
        caller: Endpoint,
        granter: Endpoint,
        grant: GrantId,
        grant_offset: usize,
        own_offset: usize,
        len: usize,
        to_grant: bool,
    ) -> Result<(), KernelError> {
        let (owner, granted) =
            self.check_grant(granter, grant, caller, grant_offset, len, to_grant)?;
        let own = self.live_space_of(caller)?.range(own_offset, len)?;
        let (owner, caller) = (owner.slot() as usize, caller.slot() as usize);
        if owner == caller {
            // A process copying through a grant on its own memory: the
            // ranges may overlap, and the result is that of a copy through
            // a buffer.
            let sp = &mut self.spaces[caller];
            sp.touch(0..granted.end.max(own.end));
            let (src, dst) = if to_grant {
                (own, granted)
            } else {
                (granted, own)
            };
            sp.mem.copy_within(src, dst.start);
            return Ok(());
        }
        let both = self.spaces.get_disjoint_mut([owner, caller]);
        // analyze:allow(panic-reach): both spaces were found live above
        // and the slots differ, so the two indices are in range and
        // disjoint; the lookup cannot miss.
        let [g, c] = both.expect("two live spaces in different slots");
        let (g, c) = (g.touch(granted), c.touch(own));
        if to_grant {
            g.copy_from_slice(c);
        } else {
            c.copy_from_slice(g);
        }
        Ok(())
    }

    /// `sys_safecopyfrom`: copies `len` bytes from (`granter`, `grant`) at
    /// `grant_offset` into `caller`'s memory at `dst_offset`.
    ///
    /// # Errors
    ///
    /// Fails with [`KernelError::BadGrant`] when the grant does not exist,
    /// is not addressed to the caller, or lacks read access; with
    /// [`KernelError::BadEndpoint`] when the granter or the owner of the
    /// memory is dead or restarted;
    /// with [`KernelError::BadRange`] when any range is out of bounds.
    #[allow(clippy::too_many_arguments)]
    pub fn safecopy_from(
        &mut self,
        caller: Endpoint,
        granter: Endpoint,
        grant: GrantId,
        grant_offset: usize,
        dst_offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.copy_between(caller, granter, grant, grant_offset, dst_offset, len, false)
    }

    /// `sys_safecopyto`: copies `len` bytes from `caller`'s memory at
    /// `src_offset` into (`granter`, `grant`) at `grant_offset`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MemoryPool::safecopy_from`], requiring write
    /// access on the grant.
    #[allow(clippy::too_many_arguments)]
    pub fn safecopy_to(
        &mut self,
        caller: Endpoint,
        granter: Endpoint,
        grant: GrantId,
        grant_offset: usize,
        src_offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.copy_between(caller, granter, grant, grant_offset, src_offset, len, true)
    }

    /// Maps (or unmaps, with `None`) the IOMMU window of a device.
    pub fn iommu_map(
        &mut self,
        dev: DeviceId,
        window: Option<IommuWindow>,
    ) -> Result<(), KernelError> {
        match window {
            Some(w) => {
                self.live_space_of(w.owner)?.range(w.offset, w.len)?;
                self.iommu.insert(dev, w);
            }
            None => {
                self.iommu.remove(&dev);
            }
        }
        Ok(())
    }

    /// The owner's slot and the range of its space that `len` bytes at
    /// device address `addr` name, if all of them lie in the window.
    fn dma_resolve(
        &self,
        dev: DeviceId,
        addr: u64,
        len: usize,
    ) -> Result<(usize, Range<usize>), DmaFault> {
        let w = self.iommu.get(&dev).ok_or(DmaFault::NoWindow)?;
        let end = addr.checked_add(len as u64).ok_or(DmaFault::OutOfWindow)?;
        if addr < w.base || end > w.base + w.len as u64 {
            return Err(DmaFault::OutOfWindow);
        }
        let sp = self.space(w.owner.slot()).ok_or(DmaFault::StaleOwner)?;
        if sp.owner != Some(w.owner) {
            return Err(DmaFault::StaleOwner);
        }
        let offset = w.offset + (addr - w.base) as usize;
        Ok((w.owner.slot() as usize, offset..offset + len))
    }

    /// Device-initiated read of `buf.len()` bytes at device address `addr`.
    ///
    /// # Errors
    ///
    /// Faults if no window is mapped, the access leaves the window, or the
    /// owning process has died — exactly the protection §4 ascribes to the
    /// I/O MMU.
    pub fn dma_read(&mut self, dev: DeviceId, addr: u64, buf: &mut [u8]) -> Result<(), DmaFault> {
        let (slot, range) = self.dma_resolve(dev, addr, buf.len())?;
        buf.copy_from_slice(self.spaces[slot].touch(range));
        Ok(())
    }

    /// Device-initiated write of `data` at device address `addr`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MemoryPool::dma_read`].
    pub fn dma_write(&mut self, dev: DeviceId, addr: u64, data: &[u8]) -> Result<(), DmaFault> {
        let (slot, range) = self.dma_resolve(dev, addr, data.len())?;
        self.spaces[slot].touch(range).copy_from_slice(data);
        Ok(())
    }

    /// The memory behind a device transfer of `len` bytes at device
    /// address `addr`, for the device to read or fill in place: all `len`
    /// bytes, or only as many as lie before the end of the window — the
    /// part a transfer moves before it faults. The window is resolved once
    /// for the transfer, not once per piece of it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MemoryPool::dma_read`]; an `addr` outside
    /// the window is [`DmaFault::OutOfWindow`].
    pub fn dma_span(
        &mut self,
        dev: DeviceId,
        addr: u64,
        len: usize,
    ) -> Result<&mut [u8], DmaFault> {
        let w = self.iommu.get(&dev).ok_or(DmaFault::NoWindow)?;
        let room = (w.base + w.len as u64).saturating_sub(addr);
        let len = len.min(usize::try_from(room).unwrap_or(usize::MAX));
        let (slot, range) = self.dma_resolve(dev, addr, len)?;
        Ok(self.spaces[slot].touch(range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(eps: &[(Endpoint, usize)]) -> MemoryPool {
        let mut p = MemoryPool::new();
        for &(ep, size) in eps {
            p.attach(ep, size);
        }
        p
    }

    const A: Endpoint = Endpoint::new(0, 1);
    const B: Endpoint = Endpoint::new(1, 1);

    #[test]
    fn a_lent_buffer_is_empty_and_never_shows_a_previous_holders_bytes() {
        let mut p = MemoryPool::new();
        let mut buf = p.lend_buf();
        buf.extend_from_slice(b"secret bytes of the first holder");
        p.return_buf(buf);
        let mut next = p.lend_buf();
        assert!(next.capacity() >= 32, "the spare buffer is lent again");
        assert_eq!(next.len(), 0);
        next.resize(32, 0);
        assert_eq!(next, [0; 32], "resize reads only zeros");
    }

    #[test]
    fn a_return_while_nothing_is_lent_is_dropped() {
        let mut p = MemoryPool::new();
        p.return_buf(vec![7; 64]);
        assert_eq!((p.spare.len(), p.lent), (0, 0));
        let buf = p.lend_buf();
        assert_eq!(buf.capacity(), 0, "nothing was kept to lend");
        p.return_buf(buf);
        assert_eq!((p.spare.len(), p.lent), (0, 1), "no capacity, nothing kept");
        p.return_buf(vec![7; 64]);
        p.return_buf(vec![8; 64]);
        assert_eq!(
            (p.spare.len(), p.lent),
            (1, 0),
            "the second return is dropped"
        );
    }

    #[test]
    fn the_spare_list_never_exceeds_the_peak_number_lent() {
        let mut p = MemoryPool::new();
        let mut held = Vec::new();
        let mut peak = 0;
        // Lend and return in waves of growing and shrinking height, with
        // foreign buffers returned in between.
        for (round, height) in [3, 1, 5, 2, 5, 0, 4].into_iter().enumerate() {
            while held.len() < height {
                let mut buf = p.lend_buf();
                buf.push(round as u8);
                held.push(buf);
            }
            peak = peak.max(held.len());
            while held.len() > height {
                p.return_buf(held.pop().expect("held"));
                p.return_buf(vec![0xEE; 8]);
            }
            assert!(
                p.lent + p.spare.len() <= peak,
                "round {round}: {} spare",
                p.spare.len()
            );
        }
        for buf in held.drain(..) {
            p.return_buf(buf);
        }
        assert!(p.spare.len() <= peak);
        assert!(
            p.spare.iter().all(Vec::is_empty),
            "every spare buffer is cleared"
        );
    }

    #[test]
    fn safecopy_roundtrip() {
        let mut p = pool_with(&[(A, 128), (B, 128)]);
        p.write_own(A, 10, b"hello").unwrap();
        let g = p.grant_create(A, B, 10, 5, GrantAccess::Read).unwrap();
        p.safecopy_from(B, A, g, 0, 50, 5).unwrap();
        assert_eq!(p.read_own(B, 50, 5).unwrap(), b"hello");
    }

    #[test]
    fn safecopy_to_respects_write_access() {
        let mut p = pool_with(&[(A, 64), (B, 64)]);
        let ro = p.grant_create(A, B, 0, 8, GrantAccess::Read).unwrap();
        p.write_own(B, 0, b"x").unwrap();
        assert_eq!(
            p.safecopy_to(B, A, ro, 0, 0, 1),
            Err(KernelError::BadGrant),
            "read-only grant rejects writes"
        );
        let rw = p.grant_create(A, B, 0, 8, GrantAccess::ReadWrite).unwrap();
        p.safecopy_to(B, A, rw, 2, 0, 1).unwrap();
        assert_eq!(p.read_own(A, 2, 1).unwrap(), b"x");
    }

    #[test]
    fn grant_is_capability_for_specific_grantee() {
        let c = Endpoint::new(2, 1);
        let mut p = pool_with(&[(A, 64), (B, 64), (c, 64)]);
        let g = p.grant_create(A, B, 0, 8, GrantAccess::ReadWrite).unwrap();
        assert_eq!(
            p.safecopy_from(c, A, g, 0, 0, 4),
            Err(KernelError::BadGrant),
            "third party cannot use someone else's grant"
        );
    }

    #[test]
    fn grant_offset_bounds_enforced() {
        let mut p = pool_with(&[(A, 64), (B, 64)]);
        let g = p.grant_create(A, B, 8, 8, GrantAccess::Read).unwrap();
        assert_eq!(
            p.safecopy_from(B, A, g, 4, 0, 8),
            Err(KernelError::BadRange)
        );
        assert!(p.safecopy_from(B, A, g, 4, 0, 4).is_ok());
    }

    #[test]
    fn grant_create_beyond_space_fails() {
        let mut p = pool_with(&[(A, 64)]);
        assert_eq!(
            p.grant_create(A, B, 60, 8, GrantAccess::Read),
            Err(KernelError::BadRange)
        );
    }

    #[test]
    fn detach_revokes_grants_via_stale_endpoint() {
        let mut p = pool_with(&[(A, 64), (B, 64)]);
        let g = p.grant_create(A, B, 0, 8, GrantAccess::Read).unwrap();
        p.detach(A);
        assert_eq!(
            p.safecopy_from(B, A, g, 0, 0, 4),
            Err(KernelError::BadEndpoint),
            "grants die with the granter"
        );
        // A restarted incarnation in the same slot must not inherit grants.
        let a2 = Endpoint::new(0, 2);
        p.attach(a2, 64);
        assert_eq!(
            p.safecopy_from(B, A, g, 0, 0, 4),
            Err(KernelError::BadEndpoint)
        );
    }

    #[test]
    fn revoked_grant_unusable() {
        let mut p = pool_with(&[(A, 64), (B, 64)]);
        let g = p.grant_create(A, B, 0, 8, GrantAccess::Read).unwrap();
        p.grant_revoke(A, g).unwrap();
        assert_eq!(
            p.safecopy_from(B, A, g, 0, 0, 4),
            Err(KernelError::BadGrant)
        );
    }

    #[test]
    fn dma_through_window() {
        let dev = DeviceId(7);
        let mut p = pool_with(&[(A, 256)]);
        p.write_own(A, 100, b"frame").unwrap();
        p.iommu_map(
            dev,
            Some(IommuWindow {
                owner: A,
                base: 0x1000,
                offset: 100,
                len: 16,
            }),
        )
        .unwrap();
        let mut buf = [0u8; 5];
        p.dma_read(dev, 0x1000, &mut buf).unwrap();
        assert_eq!(&buf, b"frame");
        p.dma_write(dev, 0x1005, b"!").unwrap();
        assert_eq!(p.read_own(A, 105, 1).unwrap(), b"!");
    }

    #[test]
    fn dma_outside_window_faults() {
        let dev = DeviceId(7);
        let mut p = pool_with(&[(A, 256)]);
        p.iommu_map(
            dev,
            Some(IommuWindow {
                owner: A,
                base: 0x1000,
                offset: 0,
                len: 16,
            }),
        )
        .unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            p.dma_read(dev, 0x0800, &mut buf),
            Err(DmaFault::OutOfWindow)
        );
        assert_eq!(
            p.dma_read(dev, 0x100c, &mut buf),
            Err(DmaFault::OutOfWindow)
        );
        assert_eq!(
            p.dma_read(DeviceId(9), 0x1000, &mut buf),
            Err(DmaFault::NoWindow)
        );
    }

    #[test]
    fn dma_after_owner_death_faults() {
        let dev = DeviceId(7);
        let mut p = pool_with(&[(A, 256)]);
        p.iommu_map(
            dev,
            Some(IommuWindow {
                owner: A,
                base: 0,
                offset: 0,
                len: 16,
            }),
        )
        .unwrap();
        p.detach(A);
        let mut buf = [0u8; 4];
        // detach unmaps the window entirely.
        assert_eq!(p.dma_read(dev, 0, &mut buf), Err(DmaFault::NoWindow));
    }

    fn window(owner: Endpoint, offset: usize, len: usize) -> Option<IommuWindow> {
        Some(IommuWindow {
            owner,
            base: 0,
            offset,
            len,
        })
    }

    #[test]
    fn untouched_memory_reads_zero_on_every_path() {
        const SIZE: usize = 4 << 20;
        let dev = DeviceId(7);
        let mut p = pool_with(&[(A, SIZE), (B, SIZE)]);
        assert_eq!(p.spaces[0].mem.len(), 0, "attach allocates nothing");
        assert_eq!(p.read_own(A, SIZE - 16, 16).unwrap(), [0; 16]);
        // B reads, through a grant, a region of A nothing ever wrote.
        let g = p
            .grant_create(A, B, 1 << 20, 64, GrantAccess::Read)
            .unwrap();
        p.write_own(B, 0, &[0xFF; 64]).unwrap();
        p.safecopy_from(B, A, g, 0, 0, 64).unwrap();
        assert_eq!(p.read_own(B, 0, 64).unwrap(), [0; 64]);
        p.iommu_map(dev, window(B, 2 << 20, 512)).unwrap();
        let mut buf = [0xFF; 512];
        p.dma_read(dev, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 512]);
        assert_eq!(p.dma_span(dev, 0, 512).unwrap(), [0; 512]);
    }

    #[test]
    fn bounds_are_those_of_the_size_not_of_the_touched_prefix() {
        const SIZE: usize = 1 << 16;
        let dev = DeviceId(7);
        let mut p = pool_with(&[(A, SIZE), (B, SIZE)]);
        assert_eq!(p.size_of(A).unwrap(), SIZE);
        // Ending at `size`: accepted. One byte past it: today's error.
        assert!(p.write_own(A, SIZE - 4, b"tail").is_ok());
        assert_eq!(
            p.write_own(A, SIZE - 3, b"tail"),
            Err(KernelError::BadRange)
        );
        assert!(p.read_own(B, SIZE - 8, 8).is_ok());
        assert_eq!(
            p.read_own(B, SIZE - 8, 9).err(),
            Some(KernelError::BadRange)
        );
        assert!(p.grant_create(A, B, SIZE - 8, 8, GrantAccess::Read).is_ok());
        assert_eq!(
            p.grant_create(A, B, SIZE - 8, 9, GrantAccess::Read),
            Err(KernelError::BadRange)
        );
        assert_eq!(
            p.grant_create(A, B, usize::MAX, 2, GrantAccess::Read),
            Err(KernelError::BadRange)
        );
        assert!(p.iommu_map(dev, window(A, SIZE - 512, 512)).is_ok());
        assert_eq!(
            p.iommu_map(dev, window(A, SIZE - 512, 513)),
            Err(KernelError::BadRange)
        );
        // The caller's side of a SafeCopy is held to the caller's size.
        let g = p.grant_create(A, B, 0, 16, GrantAccess::ReadWrite).unwrap();
        assert!(p.safecopy_from(B, A, g, 0, SIZE - 16, 16).is_ok());
        assert_eq!(
            p.safecopy_from(B, A, g, 0, SIZE - 15, 16),
            Err(KernelError::BadRange)
        );
        assert_eq!(
            p.safecopy_to(B, A, g, 0, SIZE - 15, 16),
            Err(KernelError::BadRange)
        );
    }

    #[test]
    fn dma_span_is_the_part_of_the_transfer_before_the_window_ends() {
        let dev = DeviceId(7);
        let mut p = pool_with(&[(A, 4096)]);
        p.iommu_map(
            dev,
            Some(IommuWindow {
                owner: A,
                base: 0x1000,
                offset: 100,
                len: 1000,
            }),
        )
        .unwrap();
        p.write_own(A, 100, b"head").unwrap();
        assert_eq!(p.dma_span(dev, 0x1000, 600).unwrap().len(), 600);
        assert_eq!(&p.dma_span(dev, 0x1000, 1000).unwrap()[..4], b"head");
        assert_eq!(p.dma_span(dev, 0x1000, 1001).unwrap().len(), 1000);
        assert_eq!(p.dma_span(dev, 0x1000 + 990, 64).unwrap().len(), 10);
        assert_eq!(p.dma_span(dev, 0x1000 + 1000, 64).unwrap().len(), 0);
        assert_eq!(
            p.dma_span(dev, 0x0FFF, 64).err(),
            Some(DmaFault::OutOfWindow)
        );
        assert_eq!(
            p.dma_span(dev, 0x1000 + 1001, 1).err(),
            Some(DmaFault::OutOfWindow)
        );
        assert_eq!(
            p.dma_span(DeviceId(9), 0x1000, 1).err(),
            Some(DmaFault::NoWindow)
        );
        p.dma_span(dev, 0x1000 + 4, 2)
            .unwrap()
            .copy_from_slice(b"!!");
        assert_eq!(p.read_own(A, 100, 6).unwrap(), b"head!!");
    }

    #[test]
    fn a_new_incarnation_reads_zero_where_the_old_one_wrote() {
        let mut p = pool_with(&[(A, 1024)]);
        p.write_own(A, 500, b"secret").unwrap();
        p.detach(A);
        let a2 = Endpoint::new(0, 2);
        p.attach(a2, 1024);
        assert_eq!(p.read_own(a2, 500, 6).unwrap(), [0; 6]);
        assert_eq!(p.read_own(A, 500, 6).err(), Some(KernelError::BadEndpoint));
    }

    /// A process that copies through a grant on itself gets what a copy
    /// through a bounce buffer gave: the source as it was before the copy.
    #[test]
    fn safecopy_onto_an_overlapping_range_of_the_same_space() {
        let pattern: Vec<u8> = (0..64).collect();
        for (grant_at, own_at) in [(0usize, 8usize), (8, 0), (4, 4), (0, 40)] {
            for to_grant in [false, true] {
                let mut p = pool_with(&[(A, 256)]);
                p.write_own(A, 0, &pattern).unwrap();
                let g = p
                    .grant_create(A, A, grant_at, 24, GrantAccess::ReadWrite)
                    .unwrap();
                let (src, dst) = if to_grant {
                    p.safecopy_to(A, A, g, 0, own_at, 24).unwrap();
                    (own_at, grant_at)
                } else {
                    p.safecopy_from(A, A, g, 0, own_at, 24).unwrap();
                    (grant_at, own_at)
                };
                let bounce = pattern[src..src + 24].to_vec();
                let mut want = pattern.clone();
                want[dst..dst + 24].copy_from_slice(&bounce);
                assert_eq!(
                    p.read_own(A, 0, 64).unwrap(),
                    want,
                    "grant at {grant_at}, own at {own_at}, to_grant {to_grant}"
                );
            }
        }
    }

    /// VFS (`A`) grants the file server (`B`) a buffer of the client
    /// (`C`): the bytes land in the client's space, not the granter's.
    const C: Endpoint = Endpoint::new(2, 1);

    fn magic_pool(access: GrantAccess) -> (MemoryPool, GrantId) {
        let mut p = pool_with(&[(A, 256), (B, 256), (C, 256)]);
        let g = p.magic_grant_create(A, C, B, 64, 32, access).unwrap();
        (p, g)
    }

    #[test]
    fn a_magic_grant_moves_the_owners_bytes() {
        let (mut p, g) = magic_pool(GrantAccess::Write);
        p.write_own(B, 0, b"chunk").unwrap();
        p.safecopy_to(B, A, g, 4, 0, 5).unwrap();
        assert_eq!(p.read_own(C, 68, 5).unwrap(), b"chunk");
        assert_eq!(p.read_own(A, 68, 5).unwrap(), [0; 5], "not the granter's");
        let (mut p, g) = magic_pool(GrantAccess::Read);
        p.write_own(C, 64, b"write").unwrap();
        p.safecopy_from(B, A, g, 0, 100, 5).unwrap();
        assert_eq!(p.read_own(B, 100, 5).unwrap(), b"write");
    }

    #[test]
    fn a_magic_grant_is_refused_to_another_grantee() {
        let (mut p, g) = magic_pool(GrantAccess::ReadWrite);
        for caller in [A, C] {
            assert_eq!(
                p.safecopy_from(caller, A, g, 0, 0, 4),
                Err(KernelError::BadGrant)
            );
        }
    }

    #[test]
    fn a_magic_grant_is_refused_in_the_wrong_direction() {
        let (mut p, g) = magic_pool(GrantAccess::Write);
        assert_eq!(
            p.safecopy_from(B, A, g, 0, 0, 4),
            Err(KernelError::BadGrant)
        );
        let (mut p, g) = magic_pool(GrantAccess::Read);
        assert_eq!(p.safecopy_to(B, A, g, 0, 0, 4), Err(KernelError::BadGrant));
    }

    #[test]
    fn a_magic_grant_is_refused_out_of_range() {
        let (mut p, g) = magic_pool(GrantAccess::ReadWrite);
        assert_eq!(p.safecopy_to(B, A, g, 29, 0, 4), Err(KernelError::BadRange));
        assert!(p.safecopy_to(B, A, g, 28, 0, 4).is_ok());
        // Created only over the owner's space, and only while it lives.
        assert_eq!(
            p.magic_grant_create(A, C, B, 250, 8, GrantAccess::Read),
            Err(KernelError::BadRange)
        );
        p.detach(C);
        assert_eq!(
            p.magic_grant_create(A, C, B, 0, 8, GrantAccess::Read),
            Err(KernelError::BadEndpoint)
        );
    }

    #[test]
    fn a_revoked_magic_grant_is_refused() {
        let (mut p, g) = magic_pool(GrantAccess::ReadWrite);
        p.grant_revoke(A, g).unwrap();
        assert_eq!(p.safecopy_to(B, A, g, 0, 0, 4), Err(KernelError::BadGrant));
        assert_eq!(p.grant_revoke(A, g), Err(KernelError::BadGrant));
    }

    #[test]
    fn a_magic_grant_dies_with_its_owner_and_its_granter() {
        let (mut p, g) = magic_pool(GrantAccess::ReadWrite);
        p.detach(C);
        assert_eq!(
            p.safecopy_to(B, A, g, 0, 0, 4),
            Err(KernelError::BadEndpoint),
            "the owner died"
        );
        // The owner's slot holds a new incarnation: not the grant's.
        p.attach(Endpoint::new(2, 2), 256);
        assert_eq!(
            p.safecopy_from(B, A, g, 0, 0, 4),
            Err(KernelError::BadEndpoint),
            "the owner restarted"
        );
        let (mut p, g) = magic_pool(GrantAccess::ReadWrite);
        p.detach(A);
        assert_eq!(
            p.safecopy_to(B, A, g, 0, 0, 4),
            Err(KernelError::BadEndpoint),
            "the granter died"
        );
    }

    #[test]
    fn own_memory_bounds() {
        let mut p = pool_with(&[(A, 16)]);
        assert_eq!(p.write_own(A, 12, b"12345"), Err(KernelError::BadRange));
        assert!(p.read_own(A, 16, 0).is_ok(), "empty read at end is fine");
        assert_eq!(p.read_own(A, 16, 1).err(), Some(KernelError::BadRange));
        assert_eq!(p.size_of(A).unwrap(), 16);
    }
}
