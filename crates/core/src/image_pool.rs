//! One decoded driver image per distinct upload, per world.
//!
//! Every Thing that plugs a peripheral type receives the same (5) upload
//! bytes and, decoded, the same [`DriverImage`]. A world keeps one
//! [`ImagePool`] and hands each Thing the pooled copy of what it decoded,
//! so a fleet of Things of one type holds one image, not one each.
//!
//! Sharing never replaces a Thing's own checks: [`ImagePool::admit`]
//! decodes and verifies the bytes the Thing received on every call, and
//! only then looks for a pooled image whose upload bytes are *equal* to
//! them (compared in full, never by a hash alone). An image that fails to
//! decode or verify is never pooled. Entries are weak, so the pool keeps
//! no image alive that no Thing uses.
//!
//! The pool belongs to one world, so each shard of a sharded world has its
//! own: no state is shared across threads.

use std::sync::{Arc, Weak};

use upnp_dsl::image::DriverImage;

/// The decoded driver images a world's Things use, one per distinct
/// upload.
#[derive(Debug, Default)]
pub struct ImagePool {
    /// A handful at most (one per device type and version in use), so a
    /// linear scan is enough.
    entries: Vec<PoolEntry>,
}

#[derive(Debug)]
struct PoolEntry {
    /// The upload bytes the image was decoded from.
    bytes: Box<[u8]>,
    image: Weak<DriverImage>,
}

impl ImagePool {
    /// Decodes and verifies `bytes` (a Thing's received upload image) and
    /// returns the pooled image decoded from equal bytes, entering this
    /// one if there is none. `None` if the bytes do not decode or do not
    /// verify; such an image never enters the pool.
    pub fn admit(&mut self, bytes: &[u8]) -> Option<Arc<DriverImage>> {
        let decoded = DriverImage::from_bytes(bytes).ok()?;
        // Defence in depth: the Thing re-verifies what the repository
        // claims to have verified.
        upnp_dsl::verify(&decoded).ok()?;
        if let Some(image) = self
            .entries
            .iter()
            .find(|e| *e.bytes == *bytes)
            .and_then(|e| e.image.upgrade())
        {
            return Some(image);
        }
        let image = Arc::new(decoded);
        self.entries
            .retain(|e| e.image.strong_count() > 0 && *e.bytes != *bytes);
        self.entries.push(PoolEntry {
            bytes: bytes.into(),
            image: Arc::downgrade(&image),
        });
        Some(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_hw::id::prototypes;

    use crate::world::{World, WorldConfig};

    /// Number of pooled images some Thing still holds.
    fn live(pool: &ImagePool) -> usize {
        pool.entries
            .iter()
            .filter(|e| e.image.strong_count() > 0)
            .count()
    }

    fn shipped(device: u32) -> Vec<u8> {
        upnp_dsl::compile_source(upnp_dsl::drivers::TMP36, device)
            .expect("compile")
            .to_bytes()
    }

    #[test]
    fn equal_bytes_share_one_image() {
        let mut pool = ImagePool::default();
        let bytes = shipped(prototypes::TMP36.raw());
        let a = pool.admit(&bytes).expect("verifies");
        let b = pool.admit(&bytes.clone()).expect("verifies");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(live(&pool), 1);

        // Different bytes (another device id) decode to their own image.
        let other = shipped(0xbeef_0001);
        let c = pool.admit(&other).expect("verifies");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(live(&pool), 2);

        // Weak entries: once nobody holds an image, it is gone, and the
        // next admission decodes afresh.
        drop((a, b));
        assert_eq!(live(&pool), 1);
        let d = pool.admit(&bytes).expect("verifies");
        assert_eq!(*d, DriverImage::from_bytes(&bytes).expect("decodes"));
        assert_eq!(pool.entries.len(), 2, "the dead entry was replaced");
    }

    #[test]
    fn torn_or_unverifiable_images_are_never_pooled() {
        let mut pool = ImagePool::default();
        let bytes = shipped(prototypes::TMP36.raw());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(pool.admit(&bytes[..cut]).is_none(), "torn at {cut}");
        }
        // Decodes, but has no `destroy` handler, so `verify` rejects it.
        let mut image = DriverImage::from_bytes(&bytes).expect("decodes");
        image
            .handlers
            .retain(|h| h.event_id != upnp_dsl::events::ids::DESTROY);
        let unverifiable = image.to_bytes();
        assert!(DriverImage::from_bytes(&unverifiable).is_ok());
        assert!(pool.admit(&unverifiable).is_none());
        assert!(pool.entries.is_empty(), "nothing entered the pool");

        // A verified upload afterwards is pooled as usual.
        let _held = pool.admit(&bytes).expect("verifies");
        assert_eq!(live(&pool), 1);
    }

    #[test]
    fn things_of_one_type_run_one_image() {
        let mut w = World::new(WorldConfig::default());
        w.add_manager();
        let (a, b) = (w.add_thing(), w.add_thing());
        w.star_topology();
        w.plug_and_wait(a, 0, prototypes::TMP36);
        w.plug_and_wait(b, 1, prototypes::TMP36);
        let id = prototypes::TMP36.raw();
        let running = |t| {
            let rt = &w.thing(t).runtime;
            let slot = rt.manager.slot_for_device(id).expect("installed");
            rt.manager.get(slot).expect("slot").instance.image() as *const DriverImage
        };
        assert_eq!(
            w.manager().uploads_served,
            2,
            "each Thing got its own upload"
        );
        assert!(
            std::ptr::eq(running(a), running(b)),
            "one image, two Things"
        );
    }
}
