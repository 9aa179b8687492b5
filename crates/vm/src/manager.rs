//! The driver manager (paper §4.2).
//!
//! "The driver manager interfaces with the peripheral controller and keeps
//! track of the peripherals and drivers that are available" and "provides
//! operations that enable remote deployment and removal of device
//! drivers". At most [`MAX_SLOTS`] drivers fit, as on the embedded
//! target, but the slot table grows on install: a Thing serving one
//! peripheral holds one slot, not [`MAX_SLOTS`] empty ones.

use std::sync::Arc;

use upnp_dsl::image::DriverImage;

use crate::vm::DriverInstance;

/// A driver slot index.
pub type SlotId = u8;

/// Number of driver slots (one per control-board channel would suffice;
/// a few spares allow pre-staging drivers).
pub const MAX_SLOTS: usize = 8;

/// An installed driver bound to a hardware channel.
#[derive(Debug, Clone)]
pub struct DriverSlot {
    /// The executing instance.
    pub instance: DriverInstance,
    /// The peripheral type the driver serves.
    pub device_id: u32,
    /// The control-board channel the peripheral occupies.
    pub channel: u8,
}

/// Installation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// All slots are occupied.
    NoFreeSlot,
    /// Another driver is already bound to this channel.
    ChannelBusy,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::NoFreeSlot => write!(f, "no free driver slot"),
            InstallError::ChannelBusy => write!(f, "channel already has a driver"),
        }
    }
}

impl std::error::Error for InstallError {}

/// The driver manager.
#[derive(Debug, Default)]
pub struct DriverManager {
    /// Slot `i` at index `i`; a removed driver leaves a `None` hole that
    /// the next install fills. Never longer than [`MAX_SLOTS`].
    slots: Vec<Option<DriverSlot>>,
    installs: u64,
    removals: u64,
}

impl DriverManager {
    /// Creates a manager with no drivers and no slot storage.
    pub fn new() -> Self {
        DriverManager::default()
    }

    /// Installs a driver image for the peripheral on `channel`.
    ///
    /// # Errors
    ///
    /// [`InstallError::ChannelBusy`] if the channel already has a driver;
    /// [`InstallError::NoFreeSlot`] if all [`MAX_SLOTS`] slots are taken.
    pub fn install(
        &mut self,
        image: impl Into<Arc<DriverImage>>,
        channel: u8,
    ) -> Result<SlotId, InstallError> {
        if self.slot_for_channel(channel).is_some() {
            return Err(InstallError::ChannelBusy);
        }
        // The lowest free slot: a hole left by a removal, else a new slot
        // at the end of the table.
        let free = match self.slots.iter().position(Option::is_none) {
            Some(hole) => hole,
            None if self.slots.len() < MAX_SLOTS => {
                // One slot at a time: `push` alone would reserve four.
                self.slots.reserve_exact(1);
                self.slots.push(None);
                self.slots.len() - 1
            }
            None => return Err(InstallError::NoFreeSlot),
        };
        let instance = DriverInstance::new(image);
        let device_id = instance.image().device_id;
        self.slots[free] = Some(DriverSlot {
            instance,
            device_id,
            channel,
        });
        self.installs += 1;
        Ok(free as SlotId)
    }

    /// Removes and returns the driver in `slot`.
    pub fn remove(&mut self, slot: SlotId) -> Option<DriverSlot> {
        let s = self.slots.get_mut(slot as usize)?.take();
        if s.is_some() {
            self.removals += 1;
        }
        s
    }

    /// The slot bound to `channel`, if any.
    pub fn slot_for_channel(&self, channel: u8) -> Option<SlotId> {
        self.slots
            .iter()
            .position(|s| s.as_ref().map(|d| d.channel) == Some(channel))
            .map(|i| i as SlotId)
    }

    /// The first slot serving `device_id`, if any.
    pub fn slot_for_device(&self, device_id: u32) -> Option<SlotId> {
        self.slots
            .iter()
            .position(|s| s.as_ref().map(|d| d.device_id) == Some(device_id))
            .map(|i| i as SlotId)
    }

    /// Immutable access to a slot.
    pub fn get(&self, slot: SlotId) -> Option<&DriverSlot> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Mutable access to a slot.
    pub fn get_mut(&mut self, slot: SlotId) -> Option<&mut DriverSlot> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Iterates `(slot, driver)` over installed drivers.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &DriverSlot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|d| (i as SlotId, d)))
    }

    /// Number of installed drivers.
    pub fn installed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Lifetime counters `(installs, removals)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.installs, self.removals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_dsl::compile_source;

    fn image(device_id: u32) -> DriverImage {
        compile_source(
            "event init():\n    return;\nevent destroy():\n    return;\n",
            device_id,
        )
        .unwrap()
    }

    #[test]
    fn install_and_lookup() {
        let mut m = DriverManager::new();
        let s0 = m.install(image(0xaaaa_0001), 0).unwrap();
        let s1 = m.install(image(0xaaaa_0002), 1).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(m.slot_for_channel(0), Some(s0));
        assert_eq!(m.slot_for_device(0xaaaa_0002), Some(s1));
        assert_eq!(m.installed(), 2);
        assert_eq!(m.get(s0).unwrap().device_id, 0xaaaa_0001);
    }

    #[test]
    fn channel_conflict_rejected() {
        let mut m = DriverManager::new();
        m.install(image(1), 0).unwrap();
        assert_eq!(
            m.install(image(2), 0).unwrap_err(),
            InstallError::ChannelBusy
        );
    }

    #[test]
    fn slots_exhaust() {
        let mut m = DriverManager::new();
        for ch in 0..MAX_SLOTS as u8 {
            assert_eq!(m.install(image(ch as u32 + 1), ch), Ok(ch));
        }
        assert_eq!(
            m.slots.len(),
            MAX_SLOTS,
            "the table never outgrows MAX_SLOTS"
        );
        assert_eq!(
            m.install(image(99), 100).unwrap_err(),
            InstallError::NoFreeSlot
        );
        // A removal frees exactly one slot again.
        m.remove(5);
        assert_eq!(m.install(image(99), 100), Ok(5));
        assert_eq!(
            m.install(image(100), 101).unwrap_err(),
            InstallError::NoFreeSlot
        );
    }

    #[test]
    fn fresh_manager_owns_no_slot_storage() {
        let mut m = DriverManager::new();
        assert_eq!(m.slots.capacity(), 0);
        assert_eq!(m.installed(), 0);
        m.install(image(1), 0).unwrap();
        assert_eq!(m.slots.capacity(), 1, "one driver, one slot");
    }

    #[test]
    fn lowest_free_slot_is_reused_after_remove() {
        let mut m = DriverManager::new();
        for ch in 0..3 {
            m.install(image(ch as u32 + 1), ch).unwrap();
        }
        m.remove(1);
        m.remove(0);
        assert_eq!(m.install(image(10), 10), Ok(0));
        assert_eq!(m.install(image(11), 11), Ok(1));
        assert_eq!(m.install(image(12), 12), Ok(3), "holes filled, then grow");
        let slots: Vec<SlotId> = m.iter().map(|(s, _)| s).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn install_shares_an_arc_image() {
        let shared = Arc::new(image(4));
        let mut m = DriverManager::new();
        let s = m.install(Arc::clone(&shared), 0).unwrap();
        assert!(std::ptr::eq(m.get(s).unwrap().instance.image(), &*shared));
        assert_eq!(Arc::strong_count(&shared), 2);
        m.remove(s);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn remove_frees_slot_and_counts() {
        let mut m = DriverManager::new();
        let s = m.install(image(7), 3).unwrap();
        let removed = m.remove(s).unwrap();
        assert_eq!(removed.device_id, 7);
        assert_eq!(m.installed(), 0);
        assert!(m.remove(s).is_none());
        assert_eq!(m.stats(), (1, 1));
        // Slot is reusable.
        m.install(image(8), 3).unwrap();
    }

    #[test]
    fn iter_yields_installed_only() {
        let mut m = DriverManager::new();
        m.install(image(1), 0).unwrap();
        let s = m.install(image(2), 1).unwrap();
        m.install(image(3), 2).unwrap();
        m.remove(s);
        let ids: Vec<u32> = m.iter().map(|(_, d)| d.device_id).collect();
        assert_eq!(ids, vec![1, 3]);
    }
}
