//! Block-group analysis: the paper's key enabler for locality-preserving PIM
//! GEMM under XOR address mappings (§III-B, Fig. 4).
//!
//! Every PIM-ID bit *i* is the parity of a PA mask `m_i`. Within a power-of-
//! two matrix, split each mask into its MCOL part (bits selecting the
//! position within a row) and MROW part (bits selecting the row). The *group*
//! of a matrix row is the vector of MROW-part parities; within one group,
//! every row has exactly the same set of PIM-local column blocks, which is
//! what lets a PIM reuse `B` down a column of blocks and `C` along a row.
//!
//! This module derives, for a (mapping, PIM level, matrix) triple:
//! * the number of groups (`2^rank(MROW parts)`),
//! * local columns per group (`Kblks / 2^rank(MCOL parts)`),
//! * the input **sharing/replication** factor for `B` localization,
//! * the output **reduction** factor for partial-`C` merging,
//! * membership predicates and AGEN parity constraints.

use crate::agen::ParityConstraint;
use crate::geometry::BLOCK_BYTES;
use crate::gf2::VecSpace;
use crate::layout::MatrixLayout;
use crate::mapping::XorMapping;
use crate::pimlevel::PimLevel;

/// Result of analyzing one matrix under one mapping and PIM level.
#[derive(Debug, Clone)]
pub struct GroupAnalysis {
    pub level: PimLevel,
    pub layout: MatrixLayout,
    /// Absolute PA parity masks for each PIM-ID bit.
    pub id_masks: Vec<u64>,
    /// `id_masks[i] ∩ MCOL` — column-dependent parts.
    pub mcol_parts: Vec<u64>,
    /// `id_masks[i] ∩ MROW` — row-dependent parts.
    pub mrow_parts: Vec<u64>,
    /// Parity contribution of the (aligned) base address per ID bit.
    pub fixed: u32,
    /// Span of column-part parity vectors (dimension = `rank_col`).
    col_space: VecSpace,
    /// Span of row-part parity vectors (dimension = `rank_row`).
    row_space: VecSpace,
    /// Span of both (dimension = `rank_total`).
    total_space: VecSpace,
}

impl GroupAnalysis {
    pub fn analyze(mapping: &XorMapping, level: PimLevel, layout: MatrixLayout) -> Self {
        Self::analyze_with_masks(level, level.id_masks(mapping), layout)
    }

    /// Analyze with only a *subset* of the PIM units active by dropping the
    /// given number of high bank-group ID bits (paper §III-E / Fig. 10: "we
    /// only activate half of the BG-level PIMs"). The coloring allocator
    /// pins the dropped bits for the whole allocation, so each remaining
    /// unit serves twice the blocks.
    pub fn analyze_subset(
        mapping: &XorMapping,
        level: PimLevel,
        layout: MatrixLayout,
        drop_id_bits: u32,
    ) -> Self {
        let mut masks = level.id_masks(mapping);
        assert!(
            (drop_id_bits as usize) < masks.len(),
            "cannot drop all PIM-ID bits"
        );
        masks.truncate(masks.len() - drop_id_bits as usize);
        Self::analyze_with_masks(level, masks, layout)
    }

    /// Core analysis over an explicit PIM-ID mask list.
    pub fn analyze_with_masks(level: PimLevel, id_masks: Vec<u64>, layout: MatrixLayout) -> Self {
        layout.validate();
        let mcol = layout.mcol_mask();
        let mrow = layout.mrow_mask();
        let mcol_parts: Vec<u64> = id_masks.iter().map(|m| m & mcol).collect();
        let mrow_parts: Vec<u64> = id_masks.iter().map(|m| m & mrow).collect();
        let mut fixed = 0u32;
        for (i, m) in id_masks.iter().enumerate() {
            fixed |= (((layout.base & m).count_ones()) & 1) << i;
        }
        // Per-PA-bit ID vectors: bit b contributes `v_b[i] = m_i[b]`.
        let bit_vecs = |span: u64, parts: &[u64]| -> Vec<u64> {
            let mut vecs = Vec::new();
            let mut s = span;
            while s != 0 {
                let b = s.trailing_zeros();
                s &= s - 1;
                let mut v = 0u64;
                for (i, &p) in parts.iter().enumerate() {
                    v |= ((p >> b) & 1) << i;
                }
                vecs.push(v);
            }
            vecs
        };
        let col_vecs = bit_vecs(mcol, &mcol_parts);
        let row_vecs = bit_vecs(mrow, &mrow_parts);
        let col_space = VecSpace::from_span(&col_vecs);
        let row_space = VecSpace::from_span(&row_vecs);
        let total_space =
            VecSpace::from_span(&col_vecs.iter().chain(&row_vecs).copied().collect::<Vec<_>>());
        Self {
            level,
            layout,
            id_masks,
            mcol_parts,
            mrow_parts,
            fixed,
            col_space,
            row_space,
            total_space,
        }
    }

    pub fn rank_col(&self) -> u32 {
        self.col_space.dim() as u32
    }

    pub fn rank_row(&self) -> u32 {
        self.row_space.dim() as u32
    }

    pub fn rank_total(&self) -> u32 {
        self.total_space.dim() as u32
    }

    /// Number of block groups (paper §III-B: "determined by the number of
    /// PIM ID bits that are impacted by addresses within the matrix",
    /// excluding MCOL bits since groups span whole rows).
    pub fn n_groups(&self) -> usize {
        1 << self.rank_row()
    }

    /// PIM units that hold any block of this matrix.
    pub fn active_pim_count(&self) -> usize {
        1 << self.rank_total()
    }

    /// Matrix rows per group.
    pub fn rows_per_group(&self) -> usize {
        self.layout.rows >> self.rank_row()
    }

    /// PIM-local column blocks per (PIM, group) pair.
    pub fn local_cols_per_group(&self) -> u64 {
        self.layout.blocks_per_row() >> self.rank_col()
    }

    /// Groups in which a given active PIM participates.
    pub fn groups_per_pim(&self) -> usize {
        1 << (self.rank_row() + self.rank_col() - self.rank_total())
    }

    /// Input **sharing** factor: how many PIM units need a copy of each `B`
    /// row (the localization replication factor, Fig. 11's quantity).
    pub fn sharing(&self) -> usize {
        1 << self.rank_row()
    }

    /// Output **reduction** factor: how many partial copies of each `C` row
    /// exist across PIM units and must be merged.
    pub fn reduction(&self) -> usize {
        1 << self.rank_col()
    }

    /// `A` blocks held by each active PIM.
    pub fn blocks_per_pim(&self) -> u64 {
        self.layout.total_blocks() >> self.rank_total()
    }

    /// Distinct `B` column blocks localized to each active PIM.
    pub fn distinct_cols_per_pim(&self) -> u64 {
        self.groups_per_pim() as u64 * self.local_cols_per_group()
    }

    /// `C` rows for which a given active PIM produces partials.
    pub fn c_rows_per_pim(&self) -> usize {
        self.groups_per_pim() * self.rows_per_group()
    }

    /// Raw ID-parity vector of the MROW parts for matrix row `r`.
    pub fn row_parity_vec(&self, r: usize) -> u32 {
        let off = self.layout.base + r as u64 * self.layout.row_bytes();
        let mut v = 0u32;
        for (i, &p) in self.mrow_parts.iter().enumerate() {
            v |= (((off & p).count_ones()) & 1) << i;
        }
        v
    }

    /// Raw ID-parity vector of the MCOL parts for block column `kblk`.
    pub fn col_parity_vec(&self, kblk: u64) -> u32 {
        let off = kblk * BLOCK_BYTES;
        let mut v = 0u32;
        for (i, &p) in self.mcol_parts.iter().enumerate() {
            v |= (((off & p).count_ones()) & 1) << i;
        }
        v
    }

    /// Dense group index (0..n_groups) of matrix row `r`.
    pub fn group_of_row(&self, r: usize) -> usize {
        self.row_space
            .coords(self.row_parity_vec(r) as u64)
            .expect("row parity vector lies in the row space by construction") as usize
    }

    /// Raw row-parity vector of a dense group index: the inverse of
    /// [`GroupAnalysis::group_of_row`]'s coordinates, O(rank_row).
    pub fn group_vec(&self, group: usize) -> u32 {
        let mut v = 0u64;
        for (i, &b) in self.row_space.basis().iter().enumerate() {
            if group >> i & 1 == 1 {
                v ^= b;
            }
        }
        v as u32
    }

    /// The PIM ID owning block `(row r, block column kblk)`.
    pub fn pim_of_block(&self, r: usize, kblk: u64) -> u32 {
        self.fixed ^ self.row_parity_vec(r) ^ self.col_parity_vec(kblk)
    }

    /// Is `(pim, group)` an admissible pair (does the PIM hold any blocks of
    /// this group)?
    pub fn is_admissible(&self, pim: u32, group: usize) -> bool {
        let need = (pim ^ self.fixed ^ self.group_vec(group)) as u64;
        self.col_space.contains(need)
    }

    /// PIM IDs that hold at least one block of the matrix.
    pub fn active_pims(&self) -> Vec<u32> {
        self.total_space
            .enumerate()
            .into_iter()
            .map(|v| (v as u32) ^ self.fixed)
            .collect()
    }

    /// Is the block `(row, kblk)` local to `pim` and in `group`?
    pub fn is_local(&self, pim: u32, group: usize, r: usize, kblk: u64) -> bool {
        self.group_of_row(r) == group && self.pim_of_block(r, kblk) == pim
    }

    /// Enumerate the local block columns of a (PIM, group) pair.
    pub fn local_cols(&self, pim: u32, group: usize) -> Vec<u64> {
        let need = pim ^ self.fixed ^ self.group_vec(group);
        (0..self.layout.blocks_per_row())
            .filter(|&k| self.col_parity_vec(k) == need)
            .collect()
    }

    /// Enumerate the matrix rows of a group, in ascending order.
    pub fn rows_of_group(&self, group: usize) -> Vec<usize> {
        (0..self.layout.rows).filter(|&r| self.group_of_row(r) == group).collect()
    }

    /// AGEN parity constraints selecting all blocks local to `pim` anywhere
    /// under this analysis's (possibly subset) ID masks — used to carve
    /// per-PIM buffer regions. The region-carving counterpart of
    /// [`GroupAnalysis::constraints_for`].
    pub fn pim_constraints(&self, pim: u32) -> Vec<ParityConstraint> {
        self.id_masks
            .iter()
            .enumerate()
            .map(|(i, &m)| ParityConstraint { mask: m, parity: pim >> i & 1 == 1 })
            .collect()
    }

    /// AGEN parity constraints selecting exactly the blocks of `(pim, group)`
    /// within the matrix (callers append row/column partition constraints).
    pub fn constraints_for(&self, pim: u32, group: usize) -> Vec<ParityConstraint> {
        let gvec = self.group_vec(group);
        let mut cs = Vec::with_capacity(self.id_masks.len() * 2);
        for (i, &m) in self.id_masks.iter().enumerate() {
            cs.push(ParityConstraint { mask: m, parity: pim >> i & 1 == 1 });
        }
        for (i, &p) in self.mrow_parts.iter().enumerate() {
            if p != 0 {
                cs.push(ParityConstraint { mask: p, parity: gvec >> i & 1 == 1 });
            }
        }
        cs
    }
}

/// AGEN parity constraints selecting all blocks local to `pim` anywhere (used
/// to walk per-PIM localized-buffer regions, which the coloring allocator
/// pins to a single PIM).
pub fn pim_region_constraints(
    mapping: &XorMapping,
    level: PimLevel,
    pim: u32,
) -> Vec<ParityConstraint> {
    level
        .id_masks(mapping)
        .iter()
        .enumerate()
        .map(|(i, &m)| ParityConstraint { mask: m, parity: pim >> i & 1 == 1 })
        .collect()
}

/// Single-bit constraints that pin `count_bits` of `mask`'s top bits to the
/// value `part` — used for row/column partitioning (paper §III-C: "address
/// generation must skip over those columns belonging to different
/// partitions").
pub fn partition_constraints(span_mask: u64, parts: u32, part: u32) -> Vec<ParityConstraint> {
    assert!(
        parts.is_power_of_two(),
        "partition count must be a power of two (got {parts})"
    );
    let bits = parts.trailing_zeros();
    if bits == 0 {
        return Vec::new();
    }
    assert!(
        span_mask.count_ones() >= bits,
        "cannot split a {}-bit span into {parts} partitions",
        span_mask.count_ones()
    );
    let top = 63 - span_mask.leading_zeros();
    (0..bits)
        .map(|i| {
            let bit = top - i;
            debug_assert!(span_mask >> bit & 1 == 1, "partition bits must lie in the span");
            ParityConstraint {
                mask: 1u64 << bit,
                parity: (part >> (bits - 1 - i)) & 1 == 1,
            }
        })
        .collect()
}

/// Log helper: did this (mapping, level, layout) triple leave part of the
/// matrix with zero PIM coverage? Never true by construction, but used as a
/// sanity assertion in tests and the flow.
pub fn coverage_is_exact(ga: &GroupAnalysis) -> bool {
    let total: u64 = ga.blocks_per_pim() * ga.active_pim_count() as u64;
    total == ga.layout.total_blocks()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{mapping_by_id, MappingId};

    fn skylake_bg(rows: usize, cols: usize) -> GroupAnalysis {
        let m = mapping_by_id(MappingId::Skylake);
        GroupAnalysis::analyze(&m, PimLevel::BankGroup, MatrixLayout::new_f32(0, rows, cols))
    }

    #[test]
    fn paper_fig4_example_has_four_groups() {
        // 16×512 f32 at PA 0: bits 7,14 affect BG0 and 8,9,12,13 affect CH.
        // MCOL = bits 6..10, MROW = bits 11..14 ⇒ row-dependent ID bits are
        // {14}→BG0 and {12,13}→CH ⇒ rank_row = 2 ⇒ 4 groups (Fig. 4b shows
        // GP0 and GP1).
        let ga = skylake_bg(16, 512);
        assert_eq!(ga.n_groups(), 4);
        assert_eq!(ga.rows_per_group(), 4);
        // MCOL ID bits: {7}→BG0, {8,9}→CH ⇒ rank_col = 2 ⇒ 8 of 32 blocks
        // per row are local to each PIM in a given group.
        assert_eq!(ga.rank_col(), 2);
        assert_eq!(ga.local_cols_per_group(), 8);
    }

    #[test]
    fn default_1024x4096_structure() {
        let ga = skylake_bg(1024, 4096);
        // MCOL bits 6..13: BG0 {7}, CH {8,9,12,13} ⇒ rank_col 2.
        assert_eq!(ga.rank_col(), 2);
        // MROW bits 14..23: BG0 {14}, BG1 {15,19}, RK {18,22} ⇒ rank_row 3.
        assert_eq!(ga.rank_row(), 3);
        assert_eq!(ga.n_groups(), 8);
        assert_eq!(ga.sharing(), 8);
        assert_eq!(ga.reduction(), 4);
        // 5 independent in-matrix ID dimensions but only 4 ID bits: every
        // PIM is active.
        assert_eq!(ga.rank_total(), 4);
        assert_eq!(ga.active_pim_count(), 16);
        assert!(coverage_is_exact(&ga));
    }

    #[test]
    fn every_block_has_exactly_one_pim_and_group() {
        let ga = skylake_bg(64, 512);
        let active = ga.active_pims();
        for r in 0..ga.layout.rows {
            let g = ga.group_of_row(r);
            assert!(g < ga.n_groups());
            for k in 0..ga.layout.blocks_per_row() {
                let p = ga.pim_of_block(r, k);
                assert!(active.contains(&p));
                assert!(ga.is_local(p, g, r, k));
                // No other (pim, group) claims it.
                for &q in &active {
                    if q != p {
                        assert!(!ga.is_local(q, g, r, k));
                    }
                }
            }
        }
    }

    #[test]
    fn pim_of_block_matches_mapping_decode() {
        let m = mapping_by_id(MappingId::Skylake);
        for level in PimLevel::ALL {
            let layout = MatrixLayout::new_f32(1 << 26, 128, 1024);
            let ga = GroupAnalysis::analyze(&m, level, layout);
            for r in (0..layout.rows).step_by(7) {
                for k in 0..layout.blocks_per_row() {
                    let pa = layout.block_pa(r, k);
                    assert_eq!(ga.pim_of_block(r, k), level.pim_id_of(&m, pa));
                }
            }
        }
    }

    #[test]
    fn local_cols_consistent_with_counts() {
        let ga = skylake_bg(256, 2048);
        for &p in &ga.active_pims() {
            let mut total = 0u64;
            for g in 0..ga.n_groups() {
                let cols = ga.local_cols(p, g);
                if ga.is_admissible(p, g) {
                    assert_eq!(cols.len() as u64, ga.local_cols_per_group());
                } else {
                    assert!(cols.is_empty());
                }
                total += cols.len() as u64 * ga.rows_of_group(g).len() as u64;
            }
            assert_eq!(total, ga.blocks_per_pim());
        }
    }

    #[test]
    fn sharing_varies_across_mappings_for_short_fat_matrix() {
        // Fig. 11's 128×8192 case: the mappings were designed to yield
        // different input-sharing factors at BG level.
        let layout = MatrixLayout::new_f32(0, 128, 8192);
        let sharing: Vec<usize> = MappingId::ALL
            .iter()
            .map(|&id| {
                let m = mapping_by_id(id);
                GroupAnalysis::analyze(&m, PimLevel::BankGroup, layout).sharing()
            })
            .collect();
        // Exynos lowest; Haswell/Ivy highest (paper: "the number of PIMs
        // that share the same input matrix blocks in address mappings 1 and
        // 2 are 2× greater than those with address mappings 3 and 4 and 4×
        // greater than those with address mapping 0").
        assert_eq!(sharing, vec![2, 8, 8, 4, 4]);
    }

    #[test]
    fn partition_constraints_pin_top_bits() {
        let layout = MatrixLayout::new_f32(0, 1024, 4096);
        let cs = partition_constraints(layout.mrow_mask(), 4, 0b10);
        assert_eq!(cs.len(), 2);
        // Top MROW bit is 23, next is 22; part 0b10 sets bit 23, clears 22.
        assert_eq!(cs[0].mask, 1 << 23);
        assert!(cs[0].parity);
        assert_eq!(cs[1].mask, 1 << 22);
        assert!(!cs[1].parity);
    }

    #[test]
    fn constraints_select_exactly_local_blocks() {
        let ga = skylake_bg(32, 1024);
        let pim = ga.active_pims()[0];
        for g in 0..ga.n_groups() {
            if !ga.is_admissible(pim, g) {
                continue;
            }
            let cs = ga.constraints_for(pim, g);
            let satisfied = |pa: u64| {
                cs.iter().all(|c| ((pa & c.mask).count_ones() & 1 == 1) == c.parity)
            };
            for r in 0..ga.layout.rows {
                for k in 0..ga.layout.blocks_per_row() {
                    let pa = ga.layout.block_pa(r, k);
                    assert_eq!(satisfied(pa), ga.is_local(pim, g, r, k));
                }
            }
        }
    }

    /// The enumerate-and-`coords` derivation `group_vec` used before
    /// `VecSpace::basis` existed: basis vector `i` is the row-space member
    /// whose coordinates are exactly bit `i`.
    fn group_vec_by_enumeration(ga: &GroupAnalysis, group: usize) -> u32 {
        let mut basis = vec![0u64; ga.row_space.dim()];
        for v in ga.row_space.enumerate() {
            let c = ga.row_space.coords(v).unwrap();
            if c.count_ones() == 1 {
                basis[c.trailing_zeros() as usize] = v;
            }
        }
        let mut v = 0u64;
        for (i, &b) in basis.iter().enumerate() {
            if group >> i & 1 == 1 {
                v ^= b;
            }
        }
        v as u32
    }

    #[test]
    fn group_vec_matches_enumeration_oracle_and_inverts_group_of_row() {
        let layouts = [
            MatrixLayout::new_f32(0, 16, 512),
            MatrixLayout::new_f32(0, 1024, 4096),
            MatrixLayout::new_f32(1 << 26, 128, 8192),
        ];
        let mut subset_cases = 0;
        for id in [MappingId::Skylake, MappingId::Haswell] {
            let m = mapping_by_id(id);
            for level in PimLevel::ALL {
                for &layout in &layouts {
                    let mut gas = vec![GroupAnalysis::analyze(&m, level, layout)];
                    if level.id_masks(&m).len() > 1 {
                        gas.push(GroupAnalysis::analyze_subset(&m, level, layout, 1));
                        subset_cases += 1;
                    }
                    for ga in gas {
                        let vecs: Vec<u32> = (0..ga.n_groups()).map(|g| ga.group_vec(g)).collect();
                        for (g, &v) in vecs.iter().enumerate() {
                            assert_eq!(v, group_vec_by_enumeration(&ga, g), "{id:?} {level:?} g{g}");
                        }
                        for r in 0..ga.layout.rows {
                            let g = ga.group_of_row(r);
                            let rv = ga.row_parity_vec(r);
                            for (h, &v) in vecs.iter().enumerate() {
                                assert_eq!(h == g, v == rv, "{id:?} {level:?} row {r} group {h}");
                            }
                        }
                    }
                }
            }
        }
        assert!(subset_cases > 0, "no analyze_subset case exercised");
    }

    #[test]
    #[should_panic(expected = "cannot drop all PIM-ID bits")]
    fn dropping_every_id_bit_is_rejected() {
        let m = mapping_by_id(MappingId::Skylake);
        let n = PimLevel::BankGroup.id_masks(&m).len() as u32;
        GroupAnalysis::analyze_subset(
            &m,
            PimLevel::BankGroup,
            MatrixLayout::new_f32(0, 1024, 4096),
            n,
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_partition_count_is_rejected() {
        partition_constraints(0xff << 6, 3, 0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn undersized_partition_span_is_rejected() {
        partition_constraints(1 << 6, 4, 0);
    }
}
