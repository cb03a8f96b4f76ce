//! Metadata journal for the PMFS model.
//!
//! PMFS journals fine-grained metadata updates to persistent memory
//! [Dulloor et al., EuroSys '14]. We model a redo log: every mutating
//! operation appends records inside a transaction and seals it with a
//! commit record (an NVM write plus fence each, per the cost model).
//! Recovery replays only committed transactions, so a crash that tears
//! the journal tail (simulated by [`Journal::lose_tail`]) rolls the
//! interrupted operation back cleanly.

use o1_hw::CostKind;
use o1_hw::Machine;
use o1_palloc::PhysExtent;

use crate::types::{FileClass, FileId};

/// One journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Transaction start.
    Begin {
        /// Transaction id.
        tx: u64,
    },
    /// Inode creation.
    CreateInode {
        /// New file id.
        id: FileId,
        /// Name linked to it.
        name: String,
        /// Initial class.
        class: FileClass,
    },
    /// An extent was allocated to a file.
    AllocExtent {
        /// File id.
        id: FileId,
        /// First file page the extent covers.
        file_page: u64,
        /// The physical extent.
        ext: PhysExtent,
    },
    /// An extent was released from a file.
    FreeExtent {
        /// File id.
        id: FileId,
        /// The physical extent released.
        ext: PhysExtent,
    },
    /// Logical size update.
    SetSize {
        /// File id.
        id: FileId,
        /// New size in bytes.
        bytes: u64,
    },
    /// Volatile/persistent/discardable re-marking.
    SetClass {
        /// File id.
        id: FileId,
        /// New class.
        class: FileClass,
    },
    /// Name removal (inode dies when the last reference drops).
    Unlink {
        /// File id.
        id: FileId,
    },
    /// Rename: the file's single name changes.
    Rename {
        /// File id.
        id: FileId,
        /// New name.
        new_name: String,
    },
    /// Transaction commit — the durability point.
    Commit {
        /// Transaction id.
        tx: u64,
    },
}

/// The redo log. Lives in NVM, so it survives crashes (minus any torn
/// tail the test injects).
#[derive(Clone, Debug, Default)]
pub struct Journal {
    records: Vec<Record>,
}

impl Journal {
    /// Empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records have been written.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append one record (an NVM write).
    pub fn append(&mut self, m: &mut Machine, rec: Record) {
        m.charge_kind(CostKind::JournalRecord);
        m.perf.journal_records += 1;
        self.records.push(rec);
    }

    /// Append a commit record and fence.
    pub fn commit(&mut self, m: &mut Machine, tx: u64) {
        m.charge_kind(CostKind::JournalCommit);
        m.perf.journal_records += 1;
        self.records.push(Record::Commit { tx });
    }

    /// Simulate a torn write: the last `n` records never reached NVM.
    pub fn lose_tail(&mut self, n: usize) {
        let keep = self.records.len().saturating_sub(n);
        self.records.truncate(keep);
    }

    /// Iterate the records of *committed* transactions, in order.
    /// Records of transactions with no commit record are skipped.
    pub fn committed_records(&self) -> Vec<&Record> {
        let mut out = Vec::new();
        let mut pending: Vec<&Record> = Vec::new();
        for rec in &self.records {
            match rec {
                Record::Begin { .. } => pending.clear(),
                Record::Commit { .. } => out.append(&mut pending),
                other => pending.push(other),
            }
        }
        out
    }

    /// Replace the whole journal with `records` (checkpointing).
    pub fn replace(&mut self, m: &mut Machine, records: Vec<Record>) {
        for _ in &records {
            m.charge_kind(CostKind::JournalRecord);
            m.perf.journal_records += 1;
        }
        m.charge_kind(CostKind::JournalCommit);
        self.records = records;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o1_hw::FrameNo;

    fn machine() -> Machine {
        Machine::with_nvm(1 << 20, 1 << 20)
    }

    fn ext(start: u64, frames: u64) -> PhysExtent {
        PhysExtent::new(FrameNo(start), frames)
    }

    #[test]
    fn committed_records_include_only_sealed_txns() {
        let mut m = machine();
        let mut j = Journal::new();
        j.append(&mut m, Record::Begin { tx: 1 });
        j.append(
            &mut m,
            Record::CreateInode {
                id: FileId(1),
                name: "a".into(),
                class: FileClass::Persistent,
            },
        );
        j.commit(&mut m, 1);
        j.append(&mut m, Record::Begin { tx: 2 });
        j.append(
            &mut m,
            Record::SetSize {
                id: FileId(1),
                bytes: 100,
            },
        );
        // tx 2 never commits.
        let committed = j.committed_records();
        assert_eq!(committed.len(), 1);
        assert!(matches!(committed[0], Record::CreateInode { .. }));
    }

    #[test]
    fn torn_tail_drops_uncommitted() {
        let mut m = machine();
        let mut j = Journal::new();
        j.append(&mut m, Record::Begin { tx: 1 });
        j.append(
            &mut m,
            Record::AllocExtent {
                id: FileId(1),
                file_page: 0,
                ext: ext(10, 4),
            },
        );
        j.commit(&mut m, 1);
        j.append(&mut m, Record::Begin { tx: 2 });
        j.append(
            &mut m,
            Record::AllocExtent {
                id: FileId(1),
                file_page: 4,
                ext: ext(20, 4),
            },
        );
        j.commit(&mut m, 2);
        // Tear off the commit of tx 2.
        j.lose_tail(1);
        let committed = j.committed_records();
        assert_eq!(committed.len(), 1, "tx 2 must be rolled back");
        // Tear everything.
        j.lose_tail(100);
        assert!(j.is_empty());
    }

    #[test]
    fn appends_charge_nvm_costs() {
        let mut m = machine();
        let mut j = Journal::new();
        let (_, ns) = m.timed(|m| {
            j.append(m, Record::Begin { tx: 1 });
            j.commit(m, 1);
        });
        assert_eq!(
            ns,
            m.cost.unit(CostKind::JournalRecord) + m.cost.unit(CostKind::JournalCommit)
        );
        assert_eq!(m.perf.journal_records, 2);
    }

    #[test]
    fn replace_checkpoints() {
        let mut m = machine();
        let mut j = Journal::new();
        for i in 0..10 {
            j.append(&mut m, Record::Begin { tx: i });
            j.commit(&mut m, i);
        }
        assert_eq!(j.len(), 20);
        j.replace(
            &mut m,
            vec![Record::Begin { tx: 99 }, Record::Commit { tx: 99 }],
        );
        assert_eq!(j.len(), 2);
    }
}
