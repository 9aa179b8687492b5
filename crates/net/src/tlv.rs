//! Type-length-value tuples (paper §5.2.1).
//!
//! Advertisement and discovery messages carry "a set of type-length-value
//! (TLV) encoded tuples containing extra information about each
//! peripheral". Wire format: one type byte, one length byte, `length`
//! value bytes.

/// Well-known TLV types used by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlvType {
    /// Human-readable peripheral name (UTF-8).
    Name,
    /// Measurement unit (UTF-8, e.g. "degC", "Pa").
    Unit,
    /// Installed driver version (u16 big endian).
    DriverVersion,
    /// The control-board channel the peripheral occupies (u8).
    Channel,
    /// Free-form location tag (UTF-8).
    Location,
    /// Vendor-specific payload.
    Vendor(u8),
}

impl TlvType {
    /// The wire tag.
    pub fn tag(self) -> u8 {
        match self {
            TlvType::Name => 1,
            TlvType::Unit => 2,
            TlvType::DriverVersion => 3,
            TlvType::Channel => 4,
            TlvType::Location => 5,
            TlvType::Vendor(t) => t,
        }
    }

    /// Inverse of [`TlvType::tag`].
    pub fn from_tag(tag: u8) -> TlvType {
        match tag {
            1 => TlvType::Name,
            2 => TlvType::Unit,
            3 => TlvType::DriverVersion,
            4 => TlvType::Channel,
            5 => TlvType::Location,
            t => TlvType::Vendor(t),
        }
    }
}

/// One TLV tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlv {
    /// The tuple type.
    pub ty: TlvType,
    /// The value bytes (max 255).
    pub value: Vec<u8>,
}

impl Tlv {
    /// Creates a tuple.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds 255 bytes (the length field is u8).
    pub fn new(ty: TlvType, value: impl Into<Vec<u8>>) -> Tlv {
        let value = value.into();
        assert!(value.len() <= 255, "TLV value too long");
        Tlv { ty, value }
    }

    /// Convenience: a UTF-8 text tuple.
    pub fn text(ty: TlvType, s: &str) -> Tlv {
        Tlv::new(ty, s.as_bytes().to_vec())
    }

    /// The value decoded as UTF-8, if valid.
    pub fn as_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.value).ok()
    }

    /// Serialized size.
    pub fn wire_len(&self) -> usize {
        2 + self.value.len()
    }
}

/// Appends a TLV list (count byte + tuples) to `out`.
pub fn encode_list(tlvs: &[Tlv], out: &mut Vec<u8>) {
    debug_assert!(tlvs.len() <= 255);
    out.push(tlvs.len() as u8);
    for t in tlvs {
        out.push(t.ty.tag());
        out.push(t.value.len() as u8);
        out.extend_from_slice(&t.value);
    }
}

/// Parses a TLV list from `data` starting at `*i`; advances `*i`.
///
/// Returns `None` on truncation.
pub fn decode_list(data: &[u8], i: &mut usize) -> Option<Vec<Tlv>> {
    let count = *data.get(*i)? as usize;
    *i += 1;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = *data.get(*i)?;
        let len = *data.get(*i + 1)? as usize;
        *i += 2;
        if *i + len > data.len() {
            return None;
        }
        out.push(Tlv {
            ty: TlvType::from_tag(tag),
            value: data[*i..*i + len].to_vec(),
        });
        *i += len;
    }
    Some(out)
}

/// Walks the TLV list at `*i` without copying it: `Some` exactly when
/// [`decode_list`] would accept it, leaving `*i` where `decode_list`
/// would.
pub fn skip_list(data: &[u8], i: &mut usize) -> Option<()> {
    let count = *data.get(*i)? as usize;
    *i += 1;
    for _ in 0..count {
        let len = *data.get(*i + 1)? as usize;
        *i += 2 + len;
        if *i > data.len() {
            return None;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_list() {
        let tlvs = vec![
            Tlv::text(TlvType::Name, "TMP36"),
            Tlv::text(TlvType::Unit, "degC"),
            Tlv::new(TlvType::Channel, vec![1]),
            Tlv::new(TlvType::Vendor(0x80), vec![1, 2, 3]),
        ];
        let mut buf = Vec::new();
        encode_list(&tlvs, &mut buf);
        let mut i = 0;
        let back = decode_list(&buf, &mut i).unwrap();
        assert_eq!(back, tlvs);
        assert_eq!(i, buf.len());
    }

    #[test]
    fn empty_list() {
        let mut buf = Vec::new();
        encode_list(&[], &mut buf);
        assert_eq!(buf, vec![0]);
        let mut i = 0;
        assert!(decode_list(&buf, &mut i).unwrap().is_empty());
    }

    #[test]
    fn truncation_detected() {
        let tlvs = vec![Tlv::text(TlvType::Name, "BMP180")];
        let mut buf = Vec::new();
        encode_list(&tlvs, &mut buf);
        for cut in 1..buf.len() {
            let mut i = 0;
            assert!(decode_list(&buf[..cut], &mut i).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn skip_agrees_with_decode_on_every_cut() {
        let tlvs = vec![
            Tlv::text(TlvType::Name, "BMP180"),
            Tlv::new(TlvType::Channel, vec![2]),
        ];
        let mut buf = Vec::new();
        encode_list(&tlvs, &mut buf);
        for cut in 0..=buf.len() {
            let (mut i, mut j) = (0, 0);
            let decoded = decode_list(&buf[..cut], &mut i).map(|_| i);
            let skipped = skip_list(&buf[..cut], &mut j).map(|_| j);
            assert_eq!(skipped, decoded, "cut {cut}");
        }
    }

    #[test]
    fn text_helpers() {
        let t = Tlv::text(TlvType::Location, "greenhouse-3");
        assert_eq!(t.as_text(), Some("greenhouse-3"));
        assert_eq!(t.wire_len(), 2 + 12);
        let raw = Tlv::new(TlvType::Vendor(9), vec![0xff]);
        assert!(raw.as_text().is_none());
    }

    #[test]
    fn tags_roundtrip() {
        for tag in 0..=255u8 {
            assert_eq!(TlvType::from_tag(tag).tag(), tag);
        }
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn oversized_value_panics() {
        Tlv::new(TlvType::Name, vec![0; 300]);
    }
}
