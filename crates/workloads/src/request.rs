//! Wire format and execution semantics of workload transactions.
//!
//! A [`Request`] is what a client submits, what gets batched into log
//! entries, and what every replica decodes and executes after global
//! ordering. The binary encoding is length-framed and zero-padded so the
//! *mean* serialized sizes match the paper's reported per-workload
//! transaction sizes (201/150/108/232 bytes) — those sizes drive the
//! simulator's bandwidth model.

use massbft_db::{DetTransaction, KvStore, TxnEffects};

/// Serialized size of a YCSB read request.
pub const YCSB_READ_BYTES: usize = 144;
/// Serialized size of a YCSB write request (carries a 100 B field value).
pub const YCSB_WRITE_BYTES: usize = 258;
/// Serialized size of every SmallBank request.
pub const SMALLBANK_BYTES: usize = 108;
/// Serialized size of a TPC-C NewOrder request.
pub const TPCC_NEW_ORDER_BYTES: usize = 300;
/// Serialized size of a TPC-C Payment request.
pub const TPCC_PAYMENT_BYTES: usize = 164;
/// Serialized size of a TPC-C OrderStatus request.
pub const TPCC_ORDER_STATUS_BYTES: usize = 120;
/// Serialized size of a TPC-C Delivery request.
pub const TPCC_DELIVERY_BYTES: usize = 96;
/// Serialized size of a TPC-C StockLevel request.
pub const TPCC_STOCK_LEVEL_BYTES: usize = 104;

/// Initial balance of every SmallBank account half (checking / savings).
pub const SB_INITIAL_BALANCE: i64 = 10_000;

/// A workload transaction request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// YCSB: read one field of one row.
    YcsbRead {
        /// Row key (scrambled Zipf rank).
        key: u64,
        /// Field index, `0..10`.
        field: u8,
    },
    /// YCSB: overwrite one field of one row with a 100 B value.
    YcsbWrite {
        /// Row key.
        key: u64,
        /// Field index.
        field: u8,
        /// Seed expanding to the 100 B value.
        value_seed: u64,
    },
    /// SmallBank: read both balances.
    SbBalance {
        /// Account id.
        acct: u64,
    },
    /// SmallBank: deposit into checking.
    SbDepositChecking {
        /// Account id.
        acct: u64,
        /// Amount (positive).
        amount: u32,
    },
    /// SmallBank: adjust savings; aborts if the result would go negative.
    SbTransactSavings {
        /// Account id.
        acct: u64,
        /// Signed delta.
        amount: i32,
    },
    /// SmallBank: move all of `src`'s funds into `dst`'s checking.
    SbAmalgamate {
        /// Source account.
        src: u64,
        /// Destination account.
        dst: u64,
    },
    /// SmallBank: cash a check against total balance (overdraft penalty).
    SbWriteCheck {
        /// Account id.
        acct: u64,
        /// Check amount.
        amount: u32,
    },
    /// SmallBank: checking-to-checking transfer; aborts on insufficient
    /// funds.
    SbSendPayment {
        /// Source account.
        src: u64,
        /// Destination account.
        dst: u64,
        /// Amount.
        amount: u32,
    },
    /// TPC-C NewOrder: place an order of 5–15 items in one district.
    TpccNewOrder {
        /// Warehouse id, `0..128`.
        warehouse: u16,
        /// District id, `0..10`.
        district: u8,
        /// Customer id.
        customer: u32,
        /// `(item_id, quantity)` pairs.
        items: Vec<(u32, u8)>,
    },
    /// TPC-C Payment: pay against a customer balance, updating warehouse
    /// and district year-to-date totals (the hotspot rows).
    TpccPayment {
        /// Warehouse id.
        warehouse: u16,
        /// District id.
        district: u8,
        /// Customer id.
        customer: u32,
        /// Payment amount (cents).
        amount: u32,
    },
    /// TPC-C OrderStatus (read-only): a customer's latest order.
    ///
    /// Not part of the paper's evaluation subset (50 % NewOrder + 50 %
    /// Payment) but included for full TPC-C coverage; enable via
    /// [`crate::tpcc::TpccGen::full_mix`].
    TpccOrderStatus {
        /// Warehouse id.
        warehouse: u16,
        /// District id.
        district: u8,
        /// Customer id.
        customer: u32,
    },
    /// TPC-C Delivery: deliver the oldest undelivered order of each
    /// district of a warehouse (batched carrier assignment).
    TpccDelivery {
        /// Warehouse id.
        warehouse: u16,
        /// Carrier id.
        carrier: u8,
    },
    /// TPC-C StockLevel (read-only): count low-stock items of a district's
    /// recent orders.
    TpccStockLevel {
        /// Warehouse id.
        warehouse: u16,
        /// District id.
        district: u8,
        /// Stock threshold.
        threshold: u8,
    },
}

/// Errors decoding a serialized request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than its header or declared fields.
    Truncated,
    /// Unknown kind tag.
    UnknownKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "request bytes truncated"),
            DecodeError::UnknownKind(k) => write!(f, "unknown request kind {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const K_YCSB_READ: u8 = 1;
const K_YCSB_WRITE: u8 = 2;
const K_SB_BALANCE: u8 = 3;
const K_SB_DEPOSIT: u8 = 4;
const K_SB_TRANSACT: u8 = 5;
const K_SB_AMALGAMATE: u8 = 6;
const K_SB_WRITECHECK: u8 = 7;
const K_SB_SENDPAYMENT: u8 = 8;
const K_TPCC_NEWORDER: u8 = 9;
const K_TPCC_PAYMENT: u8 = 10;
const K_TPCC_ORDERSTATUS: u8 = 11;
const K_TPCC_DELIVERY: u8 = 12;
const K_TPCC_STOCKLEVEL: u8 = 13;

impl Request {
    /// Serializes the request, zero-padded to its workload's wire size.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match self {
            Request::YcsbRead { key, field } => {
                b.push(K_YCSB_READ);
                b.extend_from_slice(&key.to_le_bytes());
                b.push(*field);
                pad_to(&mut b, YCSB_READ_BYTES);
            }
            Request::YcsbWrite {
                key,
                field,
                value_seed,
            } => {
                b.push(K_YCSB_WRITE);
                b.extend_from_slice(&key.to_le_bytes());
                b.push(*field);
                b.extend_from_slice(&value_seed.to_le_bytes());
                pad_to(&mut b, YCSB_WRITE_BYTES);
            }
            Request::SbBalance { acct } => {
                b.push(K_SB_BALANCE);
                b.extend_from_slice(&acct.to_le_bytes());
                pad_to(&mut b, SMALLBANK_BYTES);
            }
            Request::SbDepositChecking { acct, amount } => {
                b.push(K_SB_DEPOSIT);
                b.extend_from_slice(&acct.to_le_bytes());
                b.extend_from_slice(&amount.to_le_bytes());
                pad_to(&mut b, SMALLBANK_BYTES);
            }
            Request::SbTransactSavings { acct, amount } => {
                b.push(K_SB_TRANSACT);
                b.extend_from_slice(&acct.to_le_bytes());
                b.extend_from_slice(&amount.to_le_bytes());
                pad_to(&mut b, SMALLBANK_BYTES);
            }
            Request::SbAmalgamate { src, dst } => {
                b.push(K_SB_AMALGAMATE);
                b.extend_from_slice(&src.to_le_bytes());
                b.extend_from_slice(&dst.to_le_bytes());
                pad_to(&mut b, SMALLBANK_BYTES);
            }
            Request::SbWriteCheck { acct, amount } => {
                b.push(K_SB_WRITECHECK);
                b.extend_from_slice(&acct.to_le_bytes());
                b.extend_from_slice(&amount.to_le_bytes());
                pad_to(&mut b, SMALLBANK_BYTES);
            }
            Request::SbSendPayment { src, dst, amount } => {
                b.push(K_SB_SENDPAYMENT);
                b.extend_from_slice(&src.to_le_bytes());
                b.extend_from_slice(&dst.to_le_bytes());
                b.extend_from_slice(&amount.to_le_bytes());
                pad_to(&mut b, SMALLBANK_BYTES);
            }
            Request::TpccNewOrder {
                warehouse,
                district,
                customer,
                items,
            } => {
                b.push(K_TPCC_NEWORDER);
                b.extend_from_slice(&warehouse.to_le_bytes());
                b.push(*district);
                b.extend_from_slice(&customer.to_le_bytes());
                b.push(items.len() as u8);
                for (item, qty) in items {
                    b.extend_from_slice(&item.to_le_bytes());
                    b.push(*qty);
                }
                pad_to(&mut b, TPCC_NEW_ORDER_BYTES);
            }
            Request::TpccPayment {
                warehouse,
                district,
                customer,
                amount,
            } => {
                b.push(K_TPCC_PAYMENT);
                b.extend_from_slice(&warehouse.to_le_bytes());
                b.push(*district);
                b.extend_from_slice(&customer.to_le_bytes());
                b.extend_from_slice(&amount.to_le_bytes());
                pad_to(&mut b, TPCC_PAYMENT_BYTES);
            }
            Request::TpccOrderStatus {
                warehouse,
                district,
                customer,
            } => {
                b.push(K_TPCC_ORDERSTATUS);
                b.extend_from_slice(&warehouse.to_le_bytes());
                b.push(*district);
                b.extend_from_slice(&customer.to_le_bytes());
                pad_to(&mut b, TPCC_ORDER_STATUS_BYTES);
            }
            Request::TpccDelivery { warehouse, carrier } => {
                b.push(K_TPCC_DELIVERY);
                b.extend_from_slice(&warehouse.to_le_bytes());
                b.push(*carrier);
                pad_to(&mut b, TPCC_DELIVERY_BYTES);
            }
            Request::TpccStockLevel {
                warehouse,
                district,
                threshold,
            } => {
                b.push(K_TPCC_STOCKLEVEL);
                b.extend_from_slice(&warehouse.to_le_bytes());
                b.push(*district);
                b.push(*threshold);
                pad_to(&mut b, TPCC_STOCK_LEVEL_BYTES);
            }
        }
        b
    }

    /// Decodes a request, ignoring any zero padding after the fields.
    pub fn decode(bytes: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Reader { b: bytes, pos: 0 };
        let kind = r.u8()?;
        let req = match kind {
            K_YCSB_READ => Request::YcsbRead {
                key: r.u64()?,
                field: r.u8()?,
            },
            K_YCSB_WRITE => Request::YcsbWrite {
                key: r.u64()?,
                field: r.u8()?,
                value_seed: r.u64()?,
            },
            K_SB_BALANCE => Request::SbBalance { acct: r.u64()? },
            K_SB_DEPOSIT => Request::SbDepositChecking {
                acct: r.u64()?,
                amount: r.u32()?,
            },
            K_SB_TRANSACT => Request::SbTransactSavings {
                acct: r.u64()?,
                amount: r.u32()? as i32,
            },
            K_SB_AMALGAMATE => Request::SbAmalgamate {
                src: r.u64()?,
                dst: r.u64()?,
            },
            K_SB_WRITECHECK => Request::SbWriteCheck {
                acct: r.u64()?,
                amount: r.u32()?,
            },
            K_SB_SENDPAYMENT => Request::SbSendPayment {
                src: r.u64()?,
                dst: r.u64()?,
                amount: r.u32()?,
            },
            K_TPCC_NEWORDER => {
                let warehouse = r.u16()?;
                let district = r.u8()?;
                let customer = r.u32()?;
                let n = r.u8()? as usize;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push((r.u32()?, r.u8()?));
                }
                Request::TpccNewOrder {
                    warehouse,
                    district,
                    customer,
                    items,
                }
            }
            K_TPCC_PAYMENT => Request::TpccPayment {
                warehouse: r.u16()?,
                district: r.u8()?,
                customer: r.u32()?,
                amount: r.u32()?,
            },
            K_TPCC_ORDERSTATUS => Request::TpccOrderStatus {
                warehouse: r.u16()?,
                district: r.u8()?,
                customer: r.u32()?,
            },
            K_TPCC_DELIVERY => Request::TpccDelivery {
                warehouse: r.u16()?,
                carrier: r.u8()?,
            },
            K_TPCC_STOCKLEVEL => Request::TpccStockLevel {
                warehouse: r.u16()?,
                district: r.u8()?,
                threshold: r.u8()?,
            },
            k => return Err(DecodeError::UnknownKind(k)),
        };
        Ok(req)
    }
}

fn pad_to(b: &mut Vec<u8>, size: usize) {
    debug_assert!(
        b.len() <= size,
        "fields overflow wire size {size}: {}",
        b.len()
    );
    b.resize(size, 0);
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        if self.pos + n > self.b.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

// ---------------------------------------------------------------------------
// Execution semantics (lazy initial state: absent rows read as defaults).
// ---------------------------------------------------------------------------

/// `y:<key>:<field>` in decimal, written into one buffer sized for the
/// longest key (`format!` cost 2.6 % of a 48-replica run: it is called once
/// per access on every replica).
fn ycsb_key(key: u64, field: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 20 + 1 + 3);
    out.extend_from_slice(b"y:");
    push_decimal(&mut out, key);
    out.push(b':');
    push_decimal(&mut out, field as u64);
    out
}

fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn ycsb_value(seed: u64) -> Vec<u8> {
    // Expand the seed to the 100 B column value the paper's schema uses:
    // thirteen 8-byte steps on the stack, then one exact allocation.
    let mut v = [0u8; 104];
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    for word in v.chunks_exact_mut(8) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        word.copy_from_slice(&x.to_le_bytes());
    }
    v[..100].to_vec()
}

fn sb_checking(acct: u64) -> Vec<u8> {
    format!("sc:{acct}").into_bytes()
}

fn sb_savings(acct: u64) -> Vec<u8> {
    format!("ss:{acct}").into_bytes()
}

fn read_i64(view: &KvStore, key: &[u8], default: i64) -> i64 {
    view.get(key)
        .and_then(|v| v.as_slice().try_into().ok().map(i64::from_le_bytes))
        .unwrap_or(default)
}

fn w_key(w: u16) -> Vec<u8> {
    format!("w:{w}").into_bytes()
}
fn d_key(w: u16, d: u8) -> Vec<u8> {
    format!("d:{w}:{d}").into_bytes()
}
fn c_key(w: u16, d: u8, c: u32) -> Vec<u8> {
    format!("c:{w}:{d}:{c}").into_bytes()
}
fn stock_key(w: u16, i: u32) -> Vec<u8> {
    format!("s:{w}:{i}").into_bytes()
}
fn order_key(w: u16, d: u8, oid: i64) -> Vec<u8> {
    format!("o:{w}:{d}:{oid}").into_bytes()
}

impl DetTransaction for Request {
    fn execute(&self, view: &KvStore) -> TxnEffects {
        let mut eff = TxnEffects::default();
        match self {
            Request::YcsbRead { key, field } => {
                eff.read(ycsb_key(*key, *field));
            }
            Request::YcsbWrite {
                key,
                field,
                value_seed,
            } => {
                eff.write(ycsb_key(*key, *field), ycsb_value(*value_seed));
            }
            Request::SbBalance { acct } => {
                eff.read(sb_checking(*acct));
                eff.read(sb_savings(*acct));
            }
            Request::SbDepositChecking { acct, amount } => {
                let k = sb_checking(*acct);
                eff.read(k.clone());
                let bal = read_i64(view, &k, SB_INITIAL_BALANCE);
                eff.write(k, (bal + *amount as i64).to_le_bytes().to_vec());
            }
            Request::SbTransactSavings { acct, amount } => {
                let k = sb_savings(*acct);
                eff.read(k.clone());
                let bal = read_i64(view, &k, SB_INITIAL_BALANCE);
                let new = bal + *amount as i64;
                if new < 0 {
                    eff.abort = true;
                } else {
                    eff.write(k, new.to_le_bytes().to_vec());
                }
            }
            Request::SbAmalgamate { src, dst } => {
                let (sc, ss, dc) = (sb_checking(*src), sb_savings(*src), sb_checking(*dst));
                eff.read(sc.clone());
                eff.read(ss.clone());
                eff.read(dc.clone());
                let total = read_i64(view, &sc, SB_INITIAL_BALANCE)
                    + read_i64(view, &ss, SB_INITIAL_BALANCE);
                let dbal = read_i64(view, &dc, SB_INITIAL_BALANCE);
                eff.write(sc, 0i64.to_le_bytes().to_vec());
                eff.write(ss, 0i64.to_le_bytes().to_vec());
                eff.write(dc, (dbal + total).to_le_bytes().to_vec());
            }
            Request::SbWriteCheck { acct, amount } => {
                let (ck, sk) = (sb_checking(*acct), sb_savings(*acct));
                eff.read(ck.clone());
                eff.read(sk.clone());
                let total = read_i64(view, &ck, SB_INITIAL_BALANCE)
                    + read_i64(view, &sk, SB_INITIAL_BALANCE);
                let cbal = read_i64(view, &ck, SB_INITIAL_BALANCE);
                // Overdraft penalty of 1 if the check exceeds total funds.
                let debit = if total < *amount as i64 {
                    *amount as i64 + 1
                } else {
                    *amount as i64
                };
                eff.write(ck, (cbal - debit).to_le_bytes().to_vec());
            }
            Request::SbSendPayment { src, dst, amount } => {
                let (sk, dk) = (sb_checking(*src), sb_checking(*dst));
                eff.read(sk.clone());
                eff.read(dk.clone());
                let sbal = read_i64(view, &sk, SB_INITIAL_BALANCE);
                if sbal < *amount as i64 {
                    eff.abort = true;
                } else {
                    let dbal = read_i64(view, &dk, SB_INITIAL_BALANCE);
                    eff.write(sk, (sbal - *amount as i64).to_le_bytes().to_vec());
                    eff.write(dk, (dbal + *amount as i64).to_le_bytes().to_vec());
                }
            }
            Request::TpccNewOrder {
                warehouse,
                district,
                customer,
                items,
            } => {
                // Reads: warehouse tax, customer discount.
                eff.read(w_key(*warehouse));
                eff.read(c_key(*warehouse, *district, *customer));
                // The district row carries next_o_id: read-modify-write —
                // the per-district hotspot.
                let dk = d_key(*warehouse, *district);
                eff.read(dk.clone());
                let next_oid = read_i64(view, &dk, 1);
                eff.write(dk, (next_oid + 1).to_le_bytes().to_vec());
                // Order record.
                eff.write(
                    order_key(*warehouse, *district, next_oid),
                    (*customer).to_le_bytes().to_vec(),
                );
                // Stock updates per line item.
                for (item, qty) in items {
                    let sk = stock_key(*warehouse, *item);
                    eff.read(sk.clone());
                    let stock = read_i64(view, &sk, 100);
                    let new = if stock >= *qty as i64 + 10 {
                        stock - *qty as i64
                    } else {
                        stock - *qty as i64 + 91 // TPC-C restock rule
                    };
                    eff.write(sk, new.to_le_bytes().to_vec());
                }
            }
            Request::TpccOrderStatus {
                warehouse,
                district,
                customer,
            } => {
                // Read the customer row and the district's latest order id.
                eff.read(c_key(*warehouse, *district, *customer));
                let dk = d_key(*warehouse, *district);
                eff.read(dk.clone());
                let latest = read_i64(view, &dk, 1) - 1;
                if latest >= 1 {
                    eff.read(order_key(*warehouse, *district, latest));
                }
            }
            Request::TpccDelivery { warehouse, carrier } => {
                // Deliver the oldest undelivered order per district: read
                // the delivery cursor, advance it, tag the order with the
                // carrier.
                for district in 0..crate::tpcc::TPCC_DISTRICTS {
                    let cursor = format!("dlv:{warehouse}:{district}").into_bytes();
                    eff.read(cursor.clone());
                    let next_undelivered = read_i64(view, &cursor, 1);
                    let dk = d_key(*warehouse, district);
                    eff.read(dk.clone());
                    let next_oid = read_i64(view, &dk, 1);
                    if next_undelivered < next_oid {
                        let ok = order_key(*warehouse, district, next_undelivered);
                        eff.read(ok.clone());
                        eff.write(
                            format!("ocar:{warehouse}:{district}:{next_undelivered}").into_bytes(),
                            (*carrier as i64).to_le_bytes().to_vec(),
                        );
                        eff.write(cursor, (next_undelivered + 1).to_le_bytes().to_vec());
                    }
                }
            }
            Request::TpccStockLevel {
                warehouse,
                district,
                threshold,
            } => {
                // Read the stock rows of the last 20 orders' first items.
                let dk = d_key(*warehouse, *district);
                eff.read(dk.clone());
                let next_oid = read_i64(view, &dk, 1);
                let from = (next_oid - 20).max(1);
                for oid in from..next_oid {
                    eff.read(order_key(*warehouse, *district, oid));
                }
                // Sample a fixed slice of stock rows; count below threshold.
                let mut low = 0i64;
                for i in 0..20u32 {
                    let sk = stock_key(*warehouse, i * 37 + *district as u32);
                    eff.read(sk.clone());
                    if read_i64(view, &sk, 100) < *threshold as i64 {
                        low += 1;
                    }
                }
                let _ = low; // read-only: result returned to the client
            }
            Request::TpccPayment {
                warehouse,
                district,
                customer,
                amount,
            } => {
                // Warehouse YTD: the per-warehouse hotspot row.
                let wk = w_key(*warehouse);
                eff.read(wk.clone());
                let w_ytd = read_i64(view, &wk, 0);
                eff.write(wk, (w_ytd + *amount as i64).to_le_bytes().to_vec());
                // District YTD.
                let dk = d_key(*warehouse, *district);
                eff.read(dk.clone());
                // District row multiplexes next_o_id; keep a separate YTD row
                // to avoid false sharing between Payment and NewOrder beyond
                // what TPC-C itself has.
                let ytd_key = format!("dytd:{warehouse}:{district}").into_bytes();
                eff.read(ytd_key.clone());
                let d_ytd = read_i64(view, &ytd_key, 0);
                eff.write(ytd_key, (d_ytd + *amount as i64).to_le_bytes().to_vec());
                // Customer balance.
                let ck = c_key(*warehouse, *district, *customer);
                eff.read(ck.clone());
                let bal = read_i64(view, &ck, 0);
                eff.write(ck, (bal - *amount as i64).to_le_bytes().to_vec());
            }
        }
        eff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massbft_db::AriaExecutor;

    #[test]
    fn encode_sizes_are_exact() {
        assert_eq!(
            Request::YcsbRead { key: 1, field: 2 }.encode().len(),
            YCSB_READ_BYTES
        );
        assert_eq!(
            Request::YcsbWrite {
                key: 1,
                field: 2,
                value_seed: 3
            }
            .encode()
            .len(),
            YCSB_WRITE_BYTES
        );
        assert_eq!(
            Request::SbBalance { acct: 1 }.encode().len(),
            SMALLBANK_BYTES
        );
        assert_eq!(
            Request::SbSendPayment {
                src: 1,
                dst: 2,
                amount: 3
            }
            .encode()
            .len(),
            SMALLBANK_BYTES
        );
        assert_eq!(
            Request::TpccNewOrder {
                warehouse: 1,
                district: 2,
                customer: 3,
                items: vec![(1, 1); 15]
            }
            .encode()
            .len(),
            TPCC_NEW_ORDER_BYTES
        );
        assert_eq!(
            Request::TpccPayment {
                warehouse: 1,
                district: 2,
                customer: 3,
                amount: 4
            }
            .encode()
            .len(),
            TPCC_PAYMENT_BYTES
        );
    }

    #[test]
    fn roundtrip_every_variant() {
        let reqs = vec![
            Request::YcsbRead { key: 77, field: 9 },
            Request::YcsbWrite {
                key: 77,
                field: 9,
                value_seed: 1234,
            },
            Request::SbBalance { acct: 42 },
            Request::SbDepositChecking {
                acct: 42,
                amount: 17,
            },
            Request::SbTransactSavings {
                acct: 42,
                amount: -5,
            },
            Request::SbAmalgamate { src: 1, dst: 2 },
            Request::SbWriteCheck {
                acct: 42,
                amount: 99,
            },
            Request::SbSendPayment {
                src: 1,
                dst: 2,
                amount: 3,
            },
            Request::TpccNewOrder {
                warehouse: 12,
                district: 3,
                customer: 456,
                items: vec![(100, 2), (200, 7)],
            },
            Request::TpccPayment {
                warehouse: 12,
                district: 3,
                customer: 456,
                amount: 5000,
            },
            Request::TpccOrderStatus {
                warehouse: 12,
                district: 3,
                customer: 456,
            },
            Request::TpccDelivery {
                warehouse: 12,
                carrier: 7,
            },
            Request::TpccStockLevel {
                warehouse: 12,
                district: 3,
                threshold: 15,
            },
        ];
        for r in reqs {
            let bytes = r.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn full_mix_transactions_execute() {
        let mut store = KvStore::new();
        // Seed an order so OrderStatus/Delivery/StockLevel have something
        // to read.
        let seed = vec![Request::TpccNewOrder {
            warehouse: 0,
            district: 0,
            customer: 1,
            items: vec![(5, 2), (6, 3)],
        }];
        AriaExecutor::new().execute_batch(&mut store, &seed);
        let batch = vec![
            Request::TpccOrderStatus {
                warehouse: 0,
                district: 0,
                customer: 1,
            },
            Request::TpccStockLevel {
                warehouse: 0,
                district: 0,
                threshold: 15,
            },
            Request::TpccDelivery {
                warehouse: 0,
                carrier: 3,
            },
        ];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        // Reads commit; Delivery writes the carrier + advances its cursor.
        assert!(out.committed >= 2, "{:?}", out.outcomes);
        assert!(store.get(b"ocar:0:0:1".as_slice()).is_some());
        assert_eq!(read_i64(&store, b"dlv:0:0", 1), 2);
        // A second Delivery finds nothing undelivered and writes nothing.
        let again = vec![Request::TpccDelivery {
            warehouse: 0,
            carrier: 4,
        }];
        AriaExecutor::new().execute_batch(&mut store, &again);
        assert!(store.get(b"ocar:0:0:2".as_slice()).is_none());
    }

    proptest::proptest! {
        /// The `format!` body `ycsb_key` replaced, as the oracle.
        #[test]
        fn prop_ycsb_key_bytes_are_what_format_wrote(
            key in proptest::prelude::any::<u64>(),
            small in 0u64..1000,
            field in proptest::prelude::any::<u8>(),
        ) {
            for key in [key, small, key >> (key % 64)] {
                proptest::prop_assert_eq!(
                    ycsb_key(key, field),
                    format!("y:{key}:{field}").into_bytes()
                );
            }
        }

        /// Decoding never panics on arbitrary input — it either parses or
        /// returns an error (malicious chunk payloads reach this code).
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..400)) {
            let _ = Request::decode(&bytes);
        }

        /// Any decoded request executes without panicking on an empty
        /// store (lazy defaults everywhere).
        #[test]
        fn prop_decoded_requests_execute(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300)) {
            if let Ok(req) = Request::decode(&bytes) {
                let store = KvStore::new();
                let _ = req.execute(&store);
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Request::decode(&[]).unwrap_err(), DecodeError::Truncated);
        assert_eq!(
            Request::decode(&[99]).unwrap_err(),
            DecodeError::UnknownKind(99)
        );
        assert_eq!(
            Request::decode(&[K_YCSB_READ, 1, 2]).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn smallbank_money_is_conserved_by_send_payment() {
        let mut store = KvStore::new();
        let batch = vec![
            Request::SbSendPayment {
                src: 1,
                dst: 2,
                amount: 500,
            },
            Request::SbSendPayment {
                src: 3,
                dst: 4,
                amount: 700,
            },
        ];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(out.committed, 2);
        let bal = |a: u64| read_i64(&store, &sb_checking(a), SB_INITIAL_BALANCE);
        assert_eq!(bal(1) + bal(2), 2 * SB_INITIAL_BALANCE);
        assert_eq!(bal(1), SB_INITIAL_BALANCE - 500);
        assert_eq!(bal(4), SB_INITIAL_BALANCE + 700);
    }

    #[test]
    fn send_payment_aborts_on_insufficient_funds() {
        let mut store = KvStore::new();
        let batch = vec![Request::SbSendPayment {
            src: 1,
            dst: 2,
            amount: 1_000_000,
        }];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(out.committed, 0);
        assert_eq!(out.outcomes[0], massbft_db::TxnOutcome::LogicAborted);
    }

    #[test]
    fn write_check_applies_overdraft_penalty() {
        let mut store = KvStore::new();
        // Total funds 20_000; check of 30_000 → penalty.
        let batch = vec![Request::SbWriteCheck {
            acct: 5,
            amount: 30_000,
        }];
        AriaExecutor::new().execute_batch(&mut store, &batch);
        let bal = read_i64(&store, &sb_checking(5), SB_INITIAL_BALANCE);
        assert_eq!(bal, SB_INITIAL_BALANCE - 30_001);
    }

    #[test]
    fn amalgamate_moves_everything() {
        let mut store = KvStore::new();
        let batch = vec![Request::SbAmalgamate { src: 7, dst: 8 }];
        AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(read_i64(&store, &sb_checking(7), -1), 0);
        assert_eq!(read_i64(&store, &sb_savings(7), -1), 0);
        assert_eq!(
            read_i64(&store, &sb_checking(8), -1),
            3 * SB_INITIAL_BALANCE
        );
    }

    #[test]
    fn tpcc_new_order_increments_next_oid() {
        let mut store = KvStore::new();
        let mk = |c: u32| Request::TpccNewOrder {
            warehouse: 0,
            district: 0,
            customer: c,
            items: vec![(1, 1)],
        };
        // Two NewOrders in one batch hit the same district row: the second
        // conflict-aborts (the paper's hotspot effect).
        let out = AriaExecutor::new().execute_batch(&mut store, &[mk(1), mk(2)]);
        assert_eq!(out.committed, 1);
        assert_eq!(out.conflict_aborted, vec![1]);
        assert_eq!(read_i64(&store, &d_key(0, 0), 1), 2);
        // Sequential batches both commit.
        let out2 = AriaExecutor::new().execute_batch(&mut store, &[mk(2)]);
        assert_eq!(out2.committed, 1);
        assert_eq!(read_i64(&store, &d_key(0, 0), 1), 3);
        assert!(store.get(&order_key(0, 0, 1)).is_some());
        assert!(store.get(&order_key(0, 0, 2)).is_some());
    }

    #[test]
    fn tpcc_payments_same_warehouse_conflict() {
        let mut store = KvStore::new();
        let mk = |d: u8| Request::TpccPayment {
            warehouse: 3,
            district: d,
            customer: 1,
            amount: 10,
        };
        // Different districts, same warehouse YTD row.
        let out = AriaExecutor::new().execute_batch(&mut store, &[mk(0), mk(1)]);
        assert_eq!(out.committed, 1);
        assert_eq!(out.conflict_aborted.len(), 1);
    }

    #[test]
    fn ycsb_value_is_100_bytes_and_deterministic() {
        let v1 = ycsb_value(42);
        let v2 = ycsb_value(42);
        assert_eq!(v1.len(), 100);
        assert_eq!(v1, v2);
        assert_ne!(ycsb_value(43), v1);
        // The bytes themselves are pinned: every recorded ledger head
        // hashes states built from them.
        let pinned = [
            (0, "00bc46bf21eeea2c4f8d1a1a4d7580aa3289276d4a90c4b3196d847642cf69bcb4155b6ad52f7b37f39df2eade15d86406d2d7b20d106ef65d66067ea5e66910a8a2707b9102e97bd770ad16af1b90681a000280c3a7caf2e16bf03c21db555adc162489"),
            (42, "6299cd4f90fd5caa8915ad5be17f2fca64414027cedd7d82e39b577d987815f736854295a70d6483cdb59cc4c186fadb582975f14f9abfe7c76dbab844ba4fdc4a8675e54b26a67951d2c0bbf27196fc8ca8c71536a0feabeb959981a97d3e849e708df6"),
            (u64::MAX, "71c7f2e2ae14cea22c9fcaed33ce31210b5098fd82f623773e084af5ac2bb51535b6970305408223a0d34fa5dee5c3c96f148c4c0ef584b8d229c5c2172e3bf0390909b361c6e71f5467be3581a89bbb135706f3213cab34a63cc626e8a3fa347d84f4b4"),
        ];
        for (seed, hex) in pinned {
            let got: String = ycsb_value(seed)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(got, hex, "seed {seed}");
        }
    }
}
