//! The hasher of the transport's channel table and of a node's array
//! slots: their keys are a few small integers or a short name, so one
//! rotate–xor–multiply per field (per eight bytes of a name) replaces
//! SipHash over the key's bytes. Not
//! DoS-resistant — the keys are rank numbers, tags and array names the
//! program itself generates.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by small integer tuples, on [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// One rotate–xor–multiply per integer field (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let mut last = [0; 8];
        let rest = words.remainder();
        last[..rest.len()].copy_from_slice(rest);
        self.write_u64(u64::from_le_bytes(last));
    }

    // `write_i64` defaults to this; every other width a key uses must
    // be forwarded here by hand or it takes the byte loop above.
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    // The multiply leaves its best-mixed bits at the top; the table
    // indexes buckets by the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
