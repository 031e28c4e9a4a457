//! Device provisioning.
//!
//! Paper §4.4: "the node and the recipient share a symmetric key (K). …
//! The node and the recipient must also share a secret key (Sk), on the
//! node, and a public key (Pk), on the recipient. A provisioning phase is
//! therefore needed in order to load the necessary keys on the node."
//!
//! Provisioning is two steps. *Minting* (`DeviceKeys::mint`) draws the
//! keys and is a function of its RNG alone; *enrolling*
//! (`DeviceRegistry::enroll`) stores the recipient half and hands out
//! the node half. A fleet's keys can therefore be minted on as many
//! threads as the machine has (`mint_all`) without the thread count
//! reaching a single key: each device's RNG is fixed before any thread
//! starts, and enrolment happens afterwards, in device order.

use bcwan_chain::Address;
use bcwan_crypto::rsa::{generate_keypair, RsaKeySize, RsaPrivateKey, RsaPublicKey};
use rand::RngCore;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// A sensor identifier, unique network-wide in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Key material loaded onto the node during provisioning.
pub struct DeviceCredentials {
    /// The device.
    pub device_id: DeviceId,
    /// Shared AES-256 key `K`.
    pub aes_key: [u8; 32],
    /// The node's signing key `Sk` (RSA, per paper §5.1).
    pub signing_key: RsaPrivateKey,
    /// Blockchain address of the home recipient (`@R`).
    pub recipient: Address,
}

impl fmt::Debug for DeviceCredentials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Key material stays out of logs.
        write!(
            f,
            "DeviceCredentials({}, @R {})",
            self.device_id, self.recipient
        )
    }
}

/// What the recipient keeps per provisioned device.
pub struct DeviceRecord {
    /// The device.
    pub device_id: DeviceId,
    /// Shared AES-256 key `K`.
    pub aes_key: [u8; 32],
    /// Verification key `Pk` matching the node's `Sk`.
    pub verify_key: RsaPublicKey,
}

impl fmt::Debug for DeviceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeviceRecord({})", self.device_id)
    }
}

/// The modulus of every device's `Sk`/`Pk` pair: a data frame's `Sig`
/// is one block of it, whatever the ephemeral key's size.
pub(crate) const DEVICE_KEY_SIZE: RsaKeySize = RsaKeySize::Rsa512;

/// One device's freshly drawn key material, before either side holds
/// its half.
pub(crate) struct DeviceKeys {
    aes_key: [u8; 32],
    verify_key: RsaPublicKey,
    signing_key: RsaPrivateKey,
}

impl DeviceKeys {
    /// Draws `K` and the `Sk`/`Pk` pair from `rng`, and from nothing else.
    pub(crate) fn mint<R: RngCore>(rng: &mut R) -> Self {
        let mut aes_key = [0u8; 32];
        rng.fill_bytes(&mut aes_key);
        let (verify_key, signing_key) = generate_keypair(rng, DEVICE_KEY_SIZE);
        DeviceKeys {
            aes_key,
            verify_key,
            signing_key,
        }
    }
}

/// Mints one [`DeviceKeys`] per RNG, `keys[i]` from `rngs[i]`, on as many
/// threads as the machine offers.
pub(crate) fn mint_all<R: RngCore + Send>(rngs: Vec<R>) -> Vec<DeviceKeys> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    mint_on(rngs, workers)
}

/// [`mint_all`] on `workers` threads, each pulling the next unminted
/// device off one shared queue (keygen times vary several-fold, so a
/// static split would leave a thread idle).
fn mint_on<R: RngCore + Send>(rngs: Vec<R>, workers: usize) -> Vec<DeviceKeys> {
    let workers = workers.min(rngs.len());
    let queue = Mutex::new(rngs.into_iter().enumerate());
    let mut minted: Vec<(usize, DeviceKeys)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let next = queue.lock().expect("no worker panics in next()").next();
                        let Some((i, mut rng)) = next else {
                            break mine;
                        };
                        mine.push((i, DeviceKeys::mint(&mut rng)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("mint worker panicked"))
            .collect()
    });
    minted.sort_unstable_by_key(|(i, _)| *i);
    minted.into_iter().map(|(_, keys)| keys).collect()
}

/// The recipient-side registry of provisioned devices.
#[derive(Debug, Default)]
pub struct DeviceRegistry {
    records: HashMap<DeviceId, DeviceRecord>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Provisions a new device for the recipient at `recipient_address`:
    /// generates `K` and the `Sk`/`Pk` pair, stores the recipient half,
    /// and returns the node half.
    pub fn provision<R: RngCore>(
        &mut self,
        rng: &mut R,
        device_id: DeviceId,
        recipient_address: Address,
    ) -> DeviceCredentials {
        self.enroll(device_id, recipient_address, DeviceKeys::mint(rng))
    }

    /// Stores the recipient half of already minted `keys` under
    /// `device_id` and returns the node half.
    pub(crate) fn enroll(
        &mut self,
        device_id: DeviceId,
        recipient_address: Address,
        keys: DeviceKeys,
    ) -> DeviceCredentials {
        let DeviceKeys {
            aes_key,
            verify_key,
            signing_key,
        } = keys;
        self.records.insert(
            device_id,
            DeviceRecord {
                device_id,
                aes_key,
                verify_key,
            },
        );
        DeviceCredentials {
            device_id,
            aes_key,
            signing_key,
            recipient: recipient_address,
        }
    }

    /// Looks up a device record.
    pub fn get(&self, device_id: &DeviceId) -> Option<&DeviceRecord> {
        self.records.get(device_id)
    }

    /// Number of provisioned devices.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no devices are provisioned.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_sim::SimRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn provision_creates_matching_halves() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut registry = DeviceRegistry::new();
        let recipient = Address([3; 20]);
        let creds = registry.provision(&mut rng, DeviceId(7), recipient);
        assert_eq!(creds.device_id, DeviceId(7));
        assert_eq!(creds.recipient, recipient);

        let record = registry.get(&DeviceId(7)).unwrap();
        assert_eq!(record.aes_key, creds.aes_key);
        // Pk verifies what Sk signs.
        let sig = creds.signing_key.sign(b"probe");
        assert!(record.verify_key.verify(b"probe", &sig));
    }

    #[test]
    fn devices_have_distinct_keys() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut registry = DeviceRegistry::new();
        let a = registry.provision(&mut rng, DeviceId(1), Address([0; 20]));
        let b = registry.provision(&mut rng, DeviceId(2), Address([0; 20]));
        assert_ne!(a.aes_key, b.aes_key);
        let sig = a.signing_key.sign(b"x");
        assert!(!registry
            .get(&DeviceId(2))
            .unwrap()
            .verify_key
            .verify(b"x", &sig));
        assert_eq!(registry.len(), 2);
    }

    /// Every byte either side ends up holding for one device.
    fn halves(creds: &DeviceCredentials, registry: &DeviceRegistry) -> Vec<Vec<u8>> {
        let record = registry.get(&creds.device_id).unwrap();
        assert_eq!(record.device_id, creds.device_id);
        vec![
            creds.aes_key.to_vec(),
            creds.signing_key.to_bytes(),
            creds.recipient.0.to_vec(),
            record.aes_key.to_vec(),
            record.verify_key.to_bytes(),
        ]
    }

    #[test]
    fn provision_is_mint_then_enroll() {
        let recipient = Address([5; 20]);
        let mut whole = DeviceRegistry::new();
        let a = whole.provision(&mut StdRng::seed_from_u64(9), DeviceId(4), recipient);
        let mut split = DeviceRegistry::new();
        let keys = DeviceKeys::mint(&mut StdRng::seed_from_u64(9));
        let b = split.enroll(DeviceId(4), recipient, keys);
        assert_eq!(halves(&a, &whole), halves(&b, &split));
    }

    #[test]
    fn worker_count_cannot_change_a_key() {
        // The RNGs are forked in device order before any thread runs,
        // as `World::new` does; 1 worker and 4 must then hand back the
        // same keys in the same order.
        let forked = || -> Vec<SimRng> {
            let mut parent = SimRng::seed_from_u64(2018);
            (0..12).map(|device| parent.fork(device)).collect()
        };
        let provisioned = |workers: usize| {
            let mut registry = DeviceRegistry::new();
            let creds: Vec<DeviceCredentials> = (0u32..)
                .zip(mint_on(forked(), workers))
                .map(|(i, keys)| registry.enroll(DeviceId(i), Address([i as u8; 20]), keys))
                .collect();
            assert_eq!(registry.len(), 12);
            creds
                .iter()
                .map(|c| halves(c, &registry))
                .collect::<Vec<_>>()
        };
        let one = provisioned(1);
        assert_eq!(one, provisioned(4));
        // And the sequential path draws exactly these.
        let sequential: Vec<Vec<u8>> = forked()
            .iter_mut()
            .map(|rng| DeviceKeys::mint(rng).signing_key.to_bytes())
            .collect();
        let minted: Vec<Vec<u8>> = one.iter().map(|h| h[1].clone()).collect();
        assert_eq!(minted, sequential);
        assert!(mint_on(Vec::<SimRng>::new(), 4).is_empty());
    }

    #[test]
    fn unknown_device_absent() {
        let registry = DeviceRegistry::new();
        assert!(registry.get(&DeviceId(9)).is_none());
        assert!(registry.is_empty());
    }

    #[test]
    fn debug_output_hides_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut registry = DeviceRegistry::new();
        let creds = registry.provision(&mut rng, DeviceId(1), Address([0; 20]));
        let text = format!("{creds:?}");
        assert!(text.contains("dev1"));
        assert!(text.len() < 80);
    }
}
