"""Rule compiler: DSL programs -> rule tables + FCFB configurations.

This is the off-line "Rule Compiler" of the paper (Sections 4.2/4.3):
it grounds quantifiers, extracts premise features, lays out the
conclusion encoding, inventories FCFBs and fills the completely-filled
rule table the RBR-kernel looks up.
"""

from .atoms import (MAX_DIRECT_BITS, AtomAnalysis, BitFeature, DirectFeature,
                    Feature)
from .backup import BackupTable, build_backup_table_for
from .compile import (CompiledProgram, CompiledRuleBase, compile_base,
                      compile_program)
from .encoding import ConclusionEncoding, Slot, build_encoding
from .expand import Expander, GroundRule, expand_base, value_to_node
from .export import (export_program, export_rulebase, import_check,
                     pack_bitstream, table_words, unpack_bitstream)
from .fcfb import FcfbInstance, collect_fcfbs, fcfb_summary
from .tablegen import MAX_TABLE_ENTRIES, NO_RULE, generate_table, table_stats
from .verify import (Axis, VerificationReport, collect_axes,
                     verify_equivalence)
from .transform import (TransformReport, fold_premise, fold_rules,
                        merge_adjacent_rules, drop_dead_rules, optimize_base)

__all__ = [
    "BackupTable", "build_backup_table_for",
    "MAX_DIRECT_BITS", "AtomAnalysis", "BitFeature", "DirectFeature",
    "Feature", "CompiledProgram", "CompiledRuleBase", "compile_base",
    "compile_program", "ConclusionEncoding", "Slot", "build_encoding",
    "Expander", "GroundRule", "expand_base", "value_to_node",
    "export_program", "export_rulebase", "import_check", "pack_bitstream",
    "table_words", "unpack_bitstream",
    "FcfbInstance", "collect_fcfbs", "fcfb_summary",
    "MAX_TABLE_ENTRIES", "NO_RULE", "generate_table", "table_stats",
    "Axis", "VerificationReport", "collect_axes", "verify_equivalence",
    "TransformReport", "fold_premise", "fold_rules",
    "merge_adjacent_rules", "drop_dead_rules", "optimize_base",
]
