//! The on-chain IP directory (paper §4.3 / §5.1).
//!
//! "Each recipient that is ready to receive messages on a given IP
//! address must create a blockchain transaction containing the
//! information relative to its IP address. The gateway which needs to
//! deliver the message will then do a lookup in the blockchain …
//! We used the OP_RETURN script operator to do so."
//!
//! Announcements are `OP_RETURN` outputs with a `BCIP` magic:
//! `"BCIP" ‖ address(20) ‖ ip(4) ‖ port(2) ‖ seq(4 LE)`. When one
//! blockchain address announces multiple times, the highest sequence wins
//! (ties broken by chain order), so a relocated gateway (§4.3: "the
//! latter can change if the recipient gateway is moved") republishes with
//! a larger `seq`. A federation starts from `bootstrap_chain`, whose
//! genesis announces every host.

use bcwan_chain::{
    Address, Block, BlockHash, Chain, ChainParams, IdMap, Transaction, TxOut, Wallet,
};
use bcwan_script::templates::{op_return, p2pkh};
use bcwan_script::Script;
use std::collections::hash_map::Entry;
use std::fmt;

const MAGIC: &[u8; 4] = b"BCIP";

/// An IPv4 endpoint a recipient listens on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetAddr {
    /// IPv4 octets.
    pub ip: [u8; 4],
    /// TCP port.
    pub port: u16,
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{}",
            self.ip[0], self.ip[1], self.ip[2], self.ip[3], self.port
        )
    }
}

/// One directory announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpAnnouncement {
    /// The announcing blockchain address (`@R`).
    pub address: Address,
    /// The endpoint being announced.
    pub endpoint: NetAddr,
    /// Monotone sequence number; higher supersedes lower.
    pub seq: u32,
}

impl IpAnnouncement {
    /// Serializes into `OP_RETURN` payload bytes.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.address.0);
        out.extend_from_slice(&self.endpoint.ip);
        out.extend_from_slice(&self.endpoint.port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out
    }

    /// Parses an `OP_RETURN` payload; `None` for foreign/garbled data.
    pub fn from_payload(data: &[u8]) -> Option<Self> {
        if data.len() != 4 + 20 + 4 + 2 + 4 || &data[..4] != MAGIC {
            return None;
        }
        let mut address = [0u8; 20];
        address.copy_from_slice(&data[4..24]);
        let mut ip = [0u8; 4];
        ip.copy_from_slice(&data[24..28]);
        let port = u16::from_be_bytes([data[28], data[29]]);
        let seq = u32::from_le_bytes([data[30], data[31], data[32], data[33]]);
        Some(IpAnnouncement {
            address: Address(address),
            endpoint: NetAddr { ip, port },
            seq,
        })
    }

    /// The `OP_RETURN` locking script carrying this announcement.
    pub fn to_script(&self) -> Script {
        op_return(&self.to_payload())
    }

    /// Extracts every announcement a transaction carries (a bootstrap
    /// transaction may announce several recipients at once).
    pub fn all_from_transaction(tx: &Transaction) -> Vec<Self> {
        tx.outputs
            .iter()
            .filter_map(|o| o.script_pubkey.op_return_data())
            .filter_map(Self::from_payload)
            .collect()
    }

    /// Builds the zero-value announcement output.
    pub fn to_output(&self) -> TxOut {
        TxOut {
            value: 0,
            script_pubkey: self.to_script(),
        }
    }

    /// The seq-0 announcement a simulated or loopback fleet bakes into
    /// its genesis for host `host`: a synthetic `10.0.x.y:7000` endpoint
    /// (those fabrics route by node id; the entry is what the §4.3
    /// lookup finds).
    pub fn genesis(host: usize, address: Address) -> Self {
        IpAnnouncement {
            address,
            endpoint: NetAddr {
                ip: [10, 0, (host >> 8) as u8, host as u8],
                port: 7000,
            },
            seq: 0,
        }
    }
}

/// The chain a federation starts from (§5.2's bootstrap phase): a
/// genesis paying each of `allocations` and announcing every
/// `(host, address)` of `announced` (seq 0), then `coinbase_maturity`
/// empty blocks paying `miner`, so the genesis coins are spendable from
/// the start. Every host runs a fork of it.
pub(crate) fn bootstrap_chain(
    params: &ChainParams,
    allocations: &[(Address, u64)],
    announced: impl IntoIterator<Item = (usize, Address)>,
    miner: &Wallet,
) -> Chain {
    let paid = allocations.iter().map(|(address, value)| TxOut {
        value: *value,
        script_pubkey: p2pkh(&address.0),
    });
    let announced = announced
        .into_iter()
        .map(|(host, address)| IpAnnouncement::genesis(host, address).to_output());
    let coinbase = Transaction::coinbase(0, b"bcwan-genesis", paid.chain(announced).collect());
    let bits = params.difficulty_bits;
    let genesis = Block::mine(BlockHash::GENESIS_PREV, 0, bits, vec![coinbase]);
    let mut chain = Chain::new(params.clone(), genesis);
    for h in 1..=params.coinbase_maturity {
        let reward = TxOut {
            value: params.coinbase_reward,
            script_pubkey: miner.locking_script(),
        };
        let coinbase = Transaction::coinbase(h, b"warmup", vec![reward]);
        let block = Block::mine(chain.tip(), h, bits, vec![coinbase]);
        chain.add_block(block).expect("warm-up block valid");
    }
    chain
}

/// The directory view a gateway maintains by scanning the chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Directory {
    entries: IdMap<Address, IpAnnouncement>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Folds one announcement in (highest `seq` wins; equal `seq` keeps
    /// the later arrival, matching scan order), probing the map once.
    pub fn absorb(&mut self, ann: IpAnnouncement) {
        match self.entries.entry(ann.address) {
            Entry::Occupied(mut held) => {
                if held.get().seq <= ann.seq {
                    held.insert(ann);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(ann);
            }
        }
    }

    /// Scans a whole chain from genesis — the §5.1 start-up behaviour.
    pub fn from_chain(chain: &Chain) -> Self {
        let mut dir = Directory::new();
        for block in chain.iter_main() {
            for tx in &block.transactions {
                for ann in IpAnnouncement::all_from_transaction(tx) {
                    dir.absorb(ann);
                }
            }
        }
        dir
    }

    /// Looks up the endpoint of a blockchain address — the §4.3 lookup a
    /// gateway performs before opening its TCP connection.
    pub fn lookup(&self, address: &Address) -> Option<NetAddr> {
        self.entries.get(address).map(|a| a.endpoint)
    }

    /// The sequence number currently held for `address`.
    pub fn seq_of(&self, address: &Address) -> Option<u32> {
        self.entries.get(address).map(|a| a.seq)
    }

    /// Number of known recipients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcwan_chain::{ChainParams, Wallet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ann(addr_byte: u8, last_octet: u8, seq: u32) -> IpAnnouncement {
        IpAnnouncement {
            address: Address([addr_byte; 20]),
            endpoint: NetAddr {
                ip: [10, 0, 0, last_octet],
                port: 7000,
            },
            seq,
        }
    }

    #[test]
    fn payload_round_trip() {
        let a = ann(5, 9, 42);
        let payload = a.to_payload();
        assert_eq!(payload.len(), 34);
        assert_eq!(IpAnnouncement::from_payload(&payload), Some(a));
    }

    #[test]
    fn foreign_payloads_ignored() {
        assert_eq!(IpAnnouncement::from_payload(b"hello"), None);
        assert_eq!(IpAnnouncement::from_payload(&[0u8; 34]), None);
        let mut near = ann(1, 1, 1).to_payload();
        near.push(0); // wrong length
        assert_eq!(IpAnnouncement::from_payload(&near), None);
    }

    #[test]
    fn script_embedding_round_trip() {
        let a = ann(7, 7, 1);
        let script = a.to_script();
        assert!(script.is_op_return());
        let parsed = IpAnnouncement::from_payload(script.op_return_data().unwrap());
        assert_eq!(parsed, Some(a));
    }

    #[test]
    fn directory_latest_seq_wins() {
        let mut dir = Directory::new();
        dir.absorb(ann(1, 10, 1));
        dir.absorb(ann(1, 20, 3));
        dir.absorb(ann(1, 30, 2)); // stale, ignored
        assert_eq!(
            dir.lookup(&Address([1; 20])).unwrap(),
            NetAddr {
                ip: [10, 0, 0, 20],
                port: 7000
            }
        );
        assert_eq!(dir.seq_of(&Address([1; 20])), Some(3));
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn unknown_address_misses() {
        let dir = Directory::new();
        assert_eq!(dir.lookup(&Address([9; 20])), None);
        assert!(dir.is_empty());
    }

    #[test]
    fn from_chain_scans_announcements() {
        let mut rng = StdRng::seed_from_u64(4);
        let params = ChainParams::fast_test();
        let wallet = Wallet::generate(&mut rng);
        let genesis = Chain::make_genesis(&params, &[(wallet.address(), 10_000)]);
        let mut chain = Chain::new(params.clone(), genesis);

        // Announce via a transaction in block 1 that also pays change.
        let coin = {
            let cb = &chain.block_at(0).unwrap().transactions[0];
            bcwan_chain::OutPoint {
                txid: cb.txid(),
                vout: 0,
            }
        };
        // Mature the coinbase first.
        let mut parent = chain.tip();
        for h in 1..=params.coinbase_maturity {
            let cb = Transaction::coinbase(
                h,
                b"m",
                vec![TxOut {
                    value: params.coinbase_reward,
                    script_pubkey: Script::new(),
                }],
            );
            let b = bcwan_chain::Block::mine(parent, h, params.difficulty_bits, vec![cb]);
            parent = b.hash();
            chain.add_block(b).unwrap();
        }
        let announcement = ann(0xaa, 77, 5);
        let tx = wallet.build_payment(
            vec![(coin, wallet.locking_script())],
            vec![
                announcement.to_output(),
                TxOut {
                    value: 9_000,
                    script_pubkey: wallet.locking_script(),
                },
            ],
            0,
        );
        let height = chain.height() + 1;
        let cb = Transaction::coinbase(
            height,
            b"m",
            vec![TxOut {
                value: params.coinbase_reward + 1_000,
                script_pubkey: Script::new(),
            }],
        );
        let block = bcwan_chain::Block::mine(parent, height, params.difficulty_bits, vec![cb, tx]);
        chain.add_block(block).unwrap();

        let dir = Directory::from_chain(&chain);
        assert_eq!(dir.len(), 1);
        assert_eq!(
            dir.lookup(&Address([0xaa; 20])),
            Some(NetAddr {
                ip: [10, 0, 0, 77],
                port: 7000
            })
        );
    }

    #[test]
    fn netaddr_display() {
        let n = NetAddr {
            ip: [192, 168, 1, 10],
            port: 9000,
        };
        assert_eq!(n.to_string(), "192.168.1.10:9000");
    }
}
