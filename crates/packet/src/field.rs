//! Named field access in Geneva's `PROTO:field` style.
//!
//! Geneva strategies address packet fields by name — `TCP:flags`,
//! `TCP:ack`, `IP:ttl`, `TCP:options-wscale`, `TCP:load` — and the
//! genetic algorithm mutates those names freely. This module maps names
//! onto the structured headers, with uniform get/set semantics:
//!
//! * numeric fields read/write as [`FieldValue::Num`];
//! * `flags` reads/writes as a Geneva letter string;
//! * `load` is the payload as [`FieldValue::Bytes`];
//! * `options-*` fields are `Num` when present, [`FieldValue::Empty`]
//!   when absent; writing `Empty` *removes* the option (that is exactly
//!   how Strategy 8 strips `wscale`).

// Wire formats truncate by definition: length, checksum, and offset
// fields are specified modulo their width.
#![allow(clippy::cast_possible_truncation)]
use crate::flags::TcpFlags;
use crate::packet::{Packet, Transport};
use crate::tcp::TcpOption;
use crate::{Error, Result};

/// The protocol namespace of a field name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// `IP:*`
    Ip,
    /// `TCP:*`
    Tcp,
    /// `UDP:*`
    Udp,
    /// `DNS:*` — application-layer fields (appendix extension).
    Dns,
    /// `FTP:*` — application-layer fields (appendix extension).
    Ftp,
}

impl Proto {
    /// Parse Geneva's protocol token (case-insensitive).
    pub fn parse(s: &str) -> Option<Proto> {
        match s.to_ascii_uppercase().as_str() {
            "IP" | "IPV4" => Some(Proto::Ip),
            "TCP" => Some(Proto::Tcp),
            "UDP" => Some(Proto::Udp),
            "DNS" => Some(Proto::Dns),
            "FTP" => Some(Proto::Ftp),
            _ => None,
        }
    }

    /// Canonical token used when serializing strategies.
    pub fn token(self) -> &'static str {
        match self {
            Proto::Ip => "IP",
            Proto::Tcp => "TCP",
            Proto::Udp => "UDP",
            Proto::Dns => "DNS",
            Proto::Ftp => "FTP",
        }
    }
}

/// A value read from or written to a packet field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A numeric field value.
    Num(u64),
    /// A string value (TCP flag letters).
    Str(String),
    /// Raw bytes (payload).
    Bytes(Vec<u8>),
    /// Absent (option not present / empty payload / empty replacement).
    Empty,
}

impl FieldValue {
    /// Render the value in Geneva's strategy syntax.
    pub fn to_syntax(&self) -> String {
        match self {
            FieldValue::Num(n) => n.to_string(),
            FieldValue::Str(s) => s.clone(),
            FieldValue::Bytes(b) => b.iter().map(|x| format!("%{x:02x}")).collect(),
            FieldValue::Empty => String::new(),
        }
    }
}

/// The shape of a field, used by the Geneva engine to pick `corrupt`
/// replacement values of the right width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// 8-bit number.
    U8,
    /// 16-bit number.
    U16,
    /// 32-bit number.
    U32,
    /// TCP flag letters.
    Flags,
    /// Opaque byte string (payload).
    Bytes,
    /// A TCP option holding a small number (or absent).
    OptionNum,
}

/// A `(proto, field)` reference parsed from `PROTO:field`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// The protocol namespace.
    pub proto: Proto,
    /// Normalized (lowercase) field name, e.g. `flags`, `options-wscale`.
    pub name: String,
}

impl FieldRef {
    /// Construct from already-split tokens; normalizes the field name.
    pub fn new(proto: Proto, name: &str) -> FieldRef {
        FieldRef {
            proto,
            name: name.to_ascii_lowercase(),
        }
    }

    /// Parse `"TCP:flags"` style references.
    pub fn parse(s: &str) -> Result<FieldRef> {
        let (proto, name) = s
            .split_once(':')
            .ok_or_else(|| Error::UnknownField(s.to_string()))?;
        let proto = Proto::parse(proto).ok_or_else(|| Error::UnknownField(s.to_string()))?;
        let field = FieldRef::new(proto, name);
        field.kind()?; // validate the name eagerly
        Ok(field)
    }

    /// Canonical `PROTO:field` form.
    pub fn to_syntax(&self) -> String {
        format!("{}:{}", self.proto.token(), self.name)
    }

    /// Every field name addressable for a protocol — the GA's mutation
    /// alphabet.
    pub fn all_for(proto: Proto) -> Vec<FieldRef> {
        let names: &[&str] = match proto {
            Proto::Ip => &[
                "version", "ihl", "tos", "len", "id", "flags", "frag", "ttl", "proto", "chksum",
            ],
            Proto::Tcp => &[
                "sport",
                "dport",
                "seq",
                "ack",
                "dataofs",
                "flags",
                "window",
                "chksum",
                "urgptr",
                "load",
                "options-mss",
                "options-wscale",
                "options-sackok",
                "options-timestamp",
            ],
            Proto::Udp => &["sport", "dport", "len", "chksum", "load"],
            Proto::Dns => &["id", "qname"],
            Proto::Ftp => &["command"],
        };
        names.iter().map(|n| FieldRef::new(proto, n)).collect()
    }

    /// The field's shape, or an error if the name is unknown.
    pub fn kind(&self) -> Result<FieldKind> {
        let kind = match (self.proto, self.name.as_str()) {
            (Proto::Ip, "version" | "ihl" | "tos" | "flags" | "ttl" | "proto") => FieldKind::U8,
            (Proto::Ip, "len" | "id" | "frag" | "chksum") => FieldKind::U16,
            (Proto::Tcp, "sport" | "dport" | "window" | "chksum" | "urgptr") => FieldKind::U16,
            (Proto::Tcp, "seq" | "ack") => FieldKind::U32,
            (Proto::Tcp, "dataofs") => FieldKind::U8,
            (Proto::Tcp, "flags") => FieldKind::Flags,
            (Proto::Tcp, "load") => FieldKind::Bytes,
            (Proto::Tcp, name) if name.starts_with("options-") => FieldKind::OptionNum,
            (Proto::Udp, "sport" | "dport" | "len" | "chksum") => FieldKind::U16,
            (Proto::Udp, "load") => FieldKind::Bytes,
            (Proto::Dns, "id") => FieldKind::U16,
            (Proto::Dns, "qname") => FieldKind::Bytes,
            (Proto::Ftp, "command") => FieldKind::Bytes,
            _ => return Err(Error::UnknownField(self.to_syntax())),
        };
        Ok(kind)
    }

    /// Is this a derived field (checksum / length / offset) whose
    /// tampering must *suppress* recomputation on serialize?
    pub fn is_derived(&self) -> bool {
        matches!(
            (self.proto, self.name.as_str()),
            (Proto::Ip, "chksum" | "len" | "ihl")
                | (Proto::Tcp, "chksum" | "dataofs")
                | (Proto::Udp, "chksum" | "len")
        )
    }

    /// Read the field from a packet.
    pub fn get(&self, packet: &Packet) -> Result<FieldValue> {
        match self.proto {
            Proto::Ip => self.get_ip(packet),
            Proto::Tcp => self.get_tcp(packet),
            Proto::Udp => self.get_udp(packet),
            Proto::Dns | Proto::Ftp => self.get_app(packet),
        }
    }

    /// Application-layer reads (`DNS:*`, `FTP:*`), best-effort: a
    /// payload that isn't the expected protocol reads as `Empty`.
    fn get_app(&self, p: &Packet) -> Result<FieldValue> {
        let value = match (self.proto, self.name.as_str()) {
            (Proto::Dns, "id") => {
                crate::appfield::dns_id(p).map(|id| FieldValue::Num(u64::from(id)))
            }
            (Proto::Dns, "qname") => crate::appfield::dns_qname(p).map(FieldValue::Str),
            (Proto::Ftp, "command") => crate::appfield::ftp_command(p).map(FieldValue::Str),
            _ => return Err(Error::UnknownField(self.to_syntax())),
        };
        Ok(value.unwrap_or(FieldValue::Empty))
    }

    fn get_ip(&self, p: &Packet) -> Result<FieldValue> {
        let ip = &p.ip;
        let v = match self.name.as_str() {
            "version" => u64::from(ip.version),
            "ihl" => u64::from(ip.ihl),
            "tos" => u64::from(ip.tos),
            "len" => u64::from(ip.total_length),
            "id" => u64::from(ip.identification),
            "flags" => u64::from(ip.flags),
            "frag" => u64::from(ip.fragment_offset),
            "ttl" => u64::from(ip.ttl),
            "proto" => u64::from(ip.protocol),
            "chksum" => u64::from(ip.checksum),
            _ => return Err(Error::UnknownField(self.to_syntax())),
        };
        Ok(FieldValue::Num(v))
    }

    fn get_tcp(&self, p: &Packet) -> Result<FieldValue> {
        let Transport::Tcp(tcp) = &p.transport else {
            return Ok(FieldValue::Empty);
        };
        let value = match self.name.as_str() {
            "sport" => FieldValue::Num(u64::from(tcp.src_port)),
            "dport" => FieldValue::Num(u64::from(tcp.dst_port)),
            "seq" => FieldValue::Num(u64::from(tcp.seq)),
            "ack" => FieldValue::Num(u64::from(tcp.ack)),
            "dataofs" => FieldValue::Num(u64::from(tcp.data_offset)),
            "flags" => FieldValue::Str(tcp.flags.to_geneva()),
            "window" => FieldValue::Num(u64::from(tcp.window)),
            "chksum" => FieldValue::Num(u64::from(tcp.checksum)),
            "urgptr" => FieldValue::Num(u64::from(tcp.urgent)),
            "load" => {
                if p.payload.is_empty() {
                    FieldValue::Empty
                } else {
                    FieldValue::Bytes(p.payload.to_vec())
                }
            }
            name => {
                let Some(option_name) = name.strip_prefix("options-") else {
                    return Err(Error::UnknownField(self.to_syntax()));
                };
                match tcp.option(option_name) {
                    Some(TcpOption::Mss(v)) => FieldValue::Num(u64::from(*v)),
                    Some(TcpOption::WindowScale(v)) => FieldValue::Num(u64::from(*v)),
                    Some(TcpOption::SackPermitted) => FieldValue::Num(1),
                    Some(TcpOption::Timestamps(tsval, _)) => FieldValue::Num(u64::from(*tsval)),
                    Some(_) | None => FieldValue::Empty,
                }
            }
        };
        Ok(value)
    }

    fn get_udp(&self, p: &Packet) -> Result<FieldValue> {
        let Transport::Udp(udp) = &p.transport else {
            return Ok(FieldValue::Empty);
        };
        let value = match self.name.as_str() {
            "sport" => FieldValue::Num(u64::from(udp.src_port)),
            "dport" => FieldValue::Num(u64::from(udp.dst_port)),
            "len" => FieldValue::Num(u64::from(udp.length)),
            "chksum" => FieldValue::Num(u64::from(udp.checksum)),
            "load" => {
                if p.payload.is_empty() {
                    FieldValue::Empty
                } else {
                    FieldValue::Bytes(p.payload.to_vec())
                }
            }
            _ => return Err(Error::UnknownField(self.to_syntax())),
        };
        Ok(value)
    }

    /// Write the field into a packet. Writing to a TCP field of a UDP
    /// packet (or vice versa) is a silent no-op, matching Geneva's
    /// permissive engine (strategies are genetic material; nonsense
    /// combinations must not crash, just do nothing).
    pub fn set(&self, packet: &mut Packet, value: &FieldValue) -> Result<()> {
        match self.proto {
            Proto::Ip => self.set_ip(packet, value),
            Proto::Tcp => self.set_tcp(packet, value),
            Proto::Udp => self.set_udp(packet, value),
            Proto::Dns | Proto::Ftp => self.set_app(packet, value),
        }
    }

    /// Application-layer writes; silent no-ops on non-matching payloads
    /// (GA-generated nonsense must not crash).
    fn set_app(&self, p: &mut Packet, value: &FieldValue) -> Result<()> {
        let text = match value {
            FieldValue::Str(s) => s.clone(),
            FieldValue::Bytes(b) => String::from_utf8_lossy(b).into_owned(),
            FieldValue::Num(n) => n.to_string(),
            FieldValue::Empty => String::new(),
        };
        match (self.proto, self.name.as_str()) {
            (Proto::Dns, "id") => {
                crate::appfield::set_dns_id(p, numeric(value) as u16);
            }
            (Proto::Dns, "qname") => {
                crate::appfield::set_dns_qname(p, &text);
            }
            (Proto::Ftp, "command") => {
                crate::appfield::set_ftp_command(p, &text);
            }
            _ => return Err(Error::UnknownField(self.to_syntax())),
        }
        Ok(())
    }

    fn set_ip(&self, p: &mut Packet, value: &FieldValue) -> Result<()> {
        let n = numeric(value);
        let ip = &mut p.ip;
        match self.name.as_str() {
            "version" => ip.version = (n & 0x0F) as u8,
            "ihl" => ip.ihl = (n & 0x0F) as u8,
            "tos" => ip.tos = n as u8,
            "len" => ip.total_length = n as u16,
            "id" => ip.identification = n as u16,
            "flags" => ip.flags = (n & 0b111) as u8,
            "frag" => ip.fragment_offset = (n & 0x1FFF) as u16,
            "ttl" => ip.ttl = n as u8,
            "proto" => ip.protocol = n as u8,
            "chksum" => ip.checksum = n as u16,
            _ => return Err(Error::UnknownField(self.to_syntax())),
        }
        Ok(())
    }

    fn set_tcp(&self, p: &mut Packet, value: &FieldValue) -> Result<()> {
        if self.name == "load" {
            if let Transport::Tcp(_) = p.transport {
                p.payload = match value {
                    FieldValue::Bytes(b) => b.clone().into(),
                    FieldValue::Str(s) => s.clone().into_bytes().into(),
                    FieldValue::Num(n) => n.to_string().into_bytes().into(),
                    FieldValue::Empty => crate::bytes::PayloadBuf::empty(),
                };
            }
            return Ok(());
        }
        let Transport::Tcp(tcp) = &mut p.transport else {
            return Ok(());
        };
        match self.name.as_str() {
            "sport" => tcp.src_port = numeric(value) as u16,
            "dport" => tcp.dst_port = numeric(value) as u16,
            "seq" => tcp.seq = numeric(value) as u32,
            "ack" => tcp.ack = numeric(value) as u32,
            "dataofs" => tcp.data_offset = (numeric(value) & 0x0F) as u8,
            "window" => tcp.window = numeric(value) as u16,
            "chksum" => tcp.checksum = numeric(value) as u16,
            "urgptr" => tcp.urgent = numeric(value) as u16,
            "flags" => {
                tcp.flags = match value {
                    FieldValue::Str(s) => {
                        TcpFlags::from_geneva(s).unwrap_or(TcpFlags(numeric(value) as u8))
                    }
                    FieldValue::Empty => TcpFlags::NONE,
                    _ => TcpFlags(numeric(value) as u8),
                };
            }
            name => {
                let Some(option_name) = name.strip_prefix("options-") else {
                    return Err(Error::UnknownField(self.to_syntax()));
                };
                tcp.remove_option(option_name);
                if let FieldValue::Empty = value {
                    return Ok(()); // replace-with-empty == strip the option
                }
                let n = numeric(value);
                let new = match option_name {
                    "mss" => Some(TcpOption::Mss(n as u16)),
                    "wscale" => Some(TcpOption::WindowScale(n as u8)),
                    "sackok" => Some(TcpOption::SackPermitted),
                    "timestamp" => Some(TcpOption::Timestamps(n as u32, 0)),
                    _ => None,
                };
                if let Some(option) = new {
                    tcp.options.push(option);
                }
            }
        }
        Ok(())
    }

    fn set_udp(&self, p: &mut Packet, value: &FieldValue) -> Result<()> {
        if self.name == "load" {
            if let Transport::Udp(_) = p.transport {
                p.payload = match value {
                    FieldValue::Bytes(b) => b.clone().into(),
                    FieldValue::Str(s) => s.clone().into_bytes().into(),
                    FieldValue::Num(n) => n.to_string().into_bytes().into(),
                    FieldValue::Empty => crate::bytes::PayloadBuf::empty(),
                };
            }
            return Ok(());
        }
        let Transport::Udp(udp) = &mut p.transport else {
            return Ok(());
        };
        match self.name.as_str() {
            "sport" => udp.src_port = numeric(value) as u16,
            "dport" => udp.dst_port = numeric(value) as u16,
            "len" => udp.length = numeric(value) as u16,
            "chksum" => udp.checksum = numeric(value) as u16,
            _ => return Err(Error::UnknownField(self.to_syntax())),
        }
        Ok(())
    }
}

/// The conversion [`FieldRef::set`] applies to every numeric write:
/// strings parse as decimal (0 when they do not), bytes read as a
/// big-endian integer of their first eight, empty is 0.
pub fn numeric(value: &FieldValue) -> u64 {
    match value {
        FieldValue::Num(n) => *n,
        FieldValue::Str(s) => s.parse().unwrap_or(0),
        FieldValue::Bytes(b) => {
            let mut n = 0u64;
            for byte in b.iter().take(8) {
                n = (n << 8) | u64::from(*byte);
            }
            n
        }
        FieldValue::Empty => 0,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;

    fn sample() -> Packet {
        let mut p = Packet::tcp(
            [10, 0, 0, 1],
            1234,
            [10, 0, 0, 2],
            80,
            TcpFlags::SYN_ACK,
            111,
            222,
            vec![],
        );
        p.tcp_header_mut().unwrap().options = vec![TcpOption::Mss(1460), TcpOption::WindowScale(7)];
        p
    }

    #[test]
    fn parse_and_roundtrip_reference() {
        let f = FieldRef::parse("TCP:flags").unwrap();
        assert_eq!(f.proto, Proto::Tcp);
        assert_eq!(f.name, "flags");
        assert_eq!(f.to_syntax(), "TCP:flags");
        assert!(FieldRef::parse("TCP:bogus").is_err());
        assert!(FieldRef::parse("nope").is_err());
        assert!(FieldRef::parse("GRE:ttl").is_err());
    }

    #[test]
    fn get_set_numeric_fields() {
        let mut p = sample();
        let ttl = FieldRef::parse("IP:ttl").unwrap();
        assert_eq!(ttl.get(&p).unwrap(), FieldValue::Num(64));
        ttl.set(&mut p, &FieldValue::Num(3)).unwrap();
        assert_eq!(p.ip.ttl, 3);

        let ack = FieldRef::parse("TCP:ack").unwrap();
        ack.set(&mut p, &FieldValue::Num(0xDEADBEEF)).unwrap();
        assert_eq!(p.tcp_header().unwrap().ack, 0xDEADBEEF);
    }

    #[test]
    fn flags_round_trip_via_strings() {
        let mut p = sample();
        let flags = FieldRef::parse("TCP:flags").unwrap();
        assert_eq!(flags.get(&p).unwrap(), FieldValue::Str("SA".into()));
        flags.set(&mut p, &FieldValue::Str("R".into())).unwrap();
        assert_eq!(p.flags(), TcpFlags::RST);
        flags.set(&mut p, &FieldValue::Empty).unwrap();
        assert_eq!(p.flags(), TcpFlags::NONE);
    }

    #[test]
    fn load_set_and_get() {
        let mut p = sample();
        let load = FieldRef::parse("TCP:load").unwrap();
        assert_eq!(load.get(&p).unwrap(), FieldValue::Empty);
        load.set(&mut p, &FieldValue::Bytes(b"abc".to_vec()))
            .unwrap();
        assert_eq!(p.payload, b"abc");
        assert_eq!(load.get(&p).unwrap(), FieldValue::Bytes(b"abc".to_vec()));
    }

    #[test]
    fn option_remove_via_empty_replacement() {
        let mut p = sample();
        let wscale = FieldRef::parse("TCP:options-wscale").unwrap();
        assert_eq!(wscale.get(&p).unwrap(), FieldValue::Num(7));
        wscale.set(&mut p, &FieldValue::Empty).unwrap();
        assert_eq!(wscale.get(&p).unwrap(), FieldValue::Empty);
        assert!(p.tcp_header().unwrap().option("wscale").is_none());
        // Setting a value re-adds it.
        wscale.set(&mut p, &FieldValue::Num(2)).unwrap();
        assert_eq!(wscale.get(&p).unwrap(), FieldValue::Num(2));
    }

    #[test]
    fn tcp_field_on_udp_packet_is_noop() {
        let mut p = Packet::udp([1, 1, 1, 1], 53, [2, 2, 2, 2], 5353, b"x".to_vec());
        let flags = FieldRef::parse("TCP:flags").unwrap();
        assert_eq!(flags.get(&p).unwrap(), FieldValue::Empty);
        flags.set(&mut p, &FieldValue::Str("R".into())).unwrap();
        assert_eq!(p.payload, b"x"); // untouched
    }

    #[test]
    fn derived_field_classification() {
        assert!(FieldRef::parse("TCP:chksum").unwrap().is_derived());
        assert!(FieldRef::parse("IP:len").unwrap().is_derived());
        assert!(!FieldRef::parse("TCP:ack").unwrap().is_derived());
        assert!(!FieldRef::parse("TCP:load").unwrap().is_derived());
    }

    #[test]
    fn all_fields_have_valid_kinds() {
        for proto in [Proto::Ip, Proto::Tcp, Proto::Udp] {
            for field in FieldRef::all_for(proto) {
                field
                    .kind()
                    .expect("every advertised field must have a kind");
            }
        }
    }

    #[test]
    fn get_set_round_trip_all_fields() {
        // Setting a field to the value just read must be a fixed point.
        let p = sample();
        for field in FieldRef::all_for(Proto::Tcp)
            .into_iter()
            .chain(FieldRef::all_for(Proto::Ip))
        {
            let mut q = p.clone();
            let v = field.get(&q).unwrap();
            field.set(&mut q, &v).unwrap();
            assert_eq!(field.get(&q).unwrap(), v, "field {}", field.to_syntax());
        }
    }
}
