"""Every bundled and generated source assembles to the same bytes.

Each pin is a sha256 over an assembled program's sections (name, base,
bytes), its symbols and its entry point.  The sources are the MediaBench
kernels at scales 1 and 2 on both ISAs, the ARM diagnostic kernels, the
PPC SPEC-like kernels and generated mixes on both ISAs (perfbench's three
mixes, with perfbench's and ``repro fleet-bench``'s shapes, seeds 1-10).
A change to the assembler must leave every pin alone.

After a deliberate change to a workload generator (never to make an
assembler change pass), regenerate the pins and paste the printed
dictionary over ``PINS``::

    PYTHONPATH=src python tests/isa/test_assembler_digest.py
"""

import hashlib
from typing import Dict, Iterator, Tuple

import pytest

from repro.isa import arm, ppc
from repro.workloads import kernels, mediabench, speclike
from repro.workloads.generator import Mix, arm_source, ppc_source

_MIXES = (
    {"alu": 6.0, "mem": 2.0, "mul": 1.0},
    {"alu": 2.0, "mem": 6.0, "mul": 1.0},
    {"alu": 3.0, "mem": 3.0, "mul": 3.0},
)
#: perfbench's and fleet-bench's (block_length, iterations, footprint_words)
_SHAPES = ((16, 32, 64), (12, 16, 32))


def sources() -> Iterator[Tuple[str, str, str]]:
    """``(name, isa, source)`` for every pinned program."""
    for scale in (1, 2):
        for name, text in mediabench.all_arm_sources(scale).items():
            yield f"mediabench-{name}-x{scale}-arm", "arm", text
        for name, text in mediabench.all_ppc_sources(scale).items():
            yield f"mediabench-{name}-x{scale}-ppc", "ppc", text
    for name, text in kernels.all_arm_sources().items():
        yield f"kernel-{name}", "arm", text
    for name, text in speclike.all_ppc_sources().items():
        yield f"speclike-{name}", "ppc", text
    for m, mix in enumerate(_MIXES):
        for shape in _SHAPES:
            block_length, iterations, footprint = shape
            for seed in range(1, 11):
                recipe = Mix(seed=seed, block_length=block_length,
                             iterations=iterations, footprint_words=footprint, **mix)
                tag = f"gen{m}-{block_length}x{iterations}x{footprint}-s{seed}"
                yield f"{tag}-arm", "arm", arm_source(recipe)
                yield f"{tag}-ppc", "ppc", ppc_source(recipe)


def digest(isa: str, source: str) -> str:
    program = (arm if isa == "arm" else ppc).assemble(source)
    h = hashlib.sha256()
    for name, section in program.sections.items():
        h.update(f"{name}@{section.base:#x}:{len(section.data)}\n".encode())
        h.update(bytes(section.data))
    for name, value in sorted(program.symbols.items()):
        h.update(f"\n{name}={value:#x}".encode())
    h.update(f"\nentry={program.entry:#x}".encode())
    return h.hexdigest()


PINS: Dict[str, str] = {
    "mediabench-gsm_dec-x1-arm": "491b788f6c670b2344aa62d7a0d0984c51d653d7627a8ed43c3536db15b68e45",
    "mediabench-gsm_enc-x1-arm": "9525aca9562a3054afb2b04c8cdb20ca731878dc46df62c6f6c4ecbcffbf09b6",
    "mediabench-g721_dec-x1-arm": "13f215fa7b6b7c364008fe846e01d5da67805ee3ef9e62ae1ba6f118a5525a22",
    "mediabench-g721_enc-x1-arm": "3e3a0418e01a97e08981dd329a02eb5c074e2717326bb3a37409d97a6791fce4",
    "mediabench-mpeg2_dec-x1-arm": "89c332c90ca15081c20d1c04dc677a13995ea78febb4265bf80f04d75ebf9da0",
    "mediabench-mpeg2_enc-x1-arm": "16bf52d38ef75bf8bb5f390abcadd8da4cf0e08aa29afa3c1a86f22356dfe88e",
    "mediabench-gsm_dec-x1-ppc": "4b4cca88508222f803653cb22cf19af68f06e99908764e2edbdf9fa7983e7916",
    "mediabench-gsm_enc-x1-ppc": "816323082a58a2e36433653a016a484f180ebefc93635803459ad23a6edcb01b",
    "mediabench-g721_dec-x1-ppc": "c1ed7caa8ebde626d2254af9deeee917bd85cd181819612d6408da9af1f0b736",
    "mediabench-g721_enc-x1-ppc": "85f68f67671c9552df3ee770feb0093c092b133ecc47975faa83deb5af75f3e5",
    "mediabench-mpeg2_dec-x1-ppc": "05786bee6ebbed55581d19fd2fb10d96e3a54bdd8e7fbeec5f1a1bdfb8e46d63",
    "mediabench-mpeg2_enc-x1-ppc": "d5ec973eef78dbf0f53ccfa0957f2090023a11d71fe542e0ac082d45e75da147",
    "mediabench-gsm_dec-x2-arm": "958077314d30ea4a50e529cbb472a1045db54f141cb50379a980f8c823bfa8d6",
    "mediabench-gsm_enc-x2-arm": "cd4416eb8f15d99898b060f4b627e37add400231e3ddfd270617963babcacac3",
    "mediabench-g721_dec-x2-arm": "f8d1a045baac419fccbb7fdbc661ee1497d124a4345346b6c9897e01f2b70624",
    "mediabench-g721_enc-x2-arm": "db79060ce08bff24b84c368d2c76c7fe9c6f6bc2e97162d11b7da8f607159b5c",
    "mediabench-mpeg2_dec-x2-arm": "f5ff8c42058cd40983550142f4ec4095df547202d23d033b8b150e8397f7de9a",
    "mediabench-mpeg2_enc-x2-arm": "832c3a5968d36e7eb8948fdf29a3f8b8b2ff09b94d88284563731e0135ad99de",
    "mediabench-gsm_dec-x2-ppc": "a4ed9ab9ef030c322d598a780b3641aaa7f75d6313aca6fedfed86bbbe6afa75",
    "mediabench-gsm_enc-x2-ppc": "fdd7385edaa5cfd23ed742032d642e6500c3f1a4e781a6e5d76630b6df5bbabb",
    "mediabench-g721_dec-x2-ppc": "93306b7d8094cc0127dd7ad9cef02c5594cc02b66a9708f1b65691854e96862c",
    "mediabench-g721_enc-x2-ppc": "d3f5cacd7690259aedf924bc4e0342e9fa43e06306f8eb2ca9af0b259b1eb524",
    "mediabench-mpeg2_dec-x2-ppc": "726131625869707b149a19160759221337a909959f5c1a909db253c249b9df40",
    "mediabench-mpeg2_enc-x2-ppc": "644b415d8a425155635c801987e732cb94c7b2df40cb3515a942389a49941b11",
    "kernel-alu_dep1": "4439004be47c23c115a4e2dbc8790b0e98f34ea5b2f2af62697e617c0cdfcd6c",
    "kernel-alu_ind1": "1c50a5ff3fa94e9ed13aa1b813fd4838fda6d951438e5189ffc77661c3799aac",
    "kernel-alu_dep2": "2b6c281f60a75a36703605cd5f27585207878a9ab70de0287a895fe94e687517",
    "kernel-alu_ind2": "f6e23ef3e56e39e1ebd15406b9e1e9917d33f963185c57122443a2efd8d5f9ce",
    "kernel-alu_dep4": "305dad6ca54f5e5dee80fac3ace42525ad6c7b602a075473674cf43c77acc94f",
    "kernel-alu_ind4": "d23fe205095152058eb0ab8bc2f8af6dbeb3735076737549e5ca6e9082cdbea7",
    "kernel-alu_dep8": "1f5a193ab0095b8c3030f57829c2c6f8b9c9db3bd4059d2ca3bbe667ab486641",
    "kernel-alu_ind8": "2e6a0dd80c3fe045cdd0e7fe171ea8f79b51deee5b6ce48b897fb3f628c981d2",
    "kernel-mul_byte1": "c7b0f99cf2172c8a5ec949e2a67d27bff3a9d5a92b3dcdbf75d0cad70fdcb79f",
    "kernel-mul_byte2": "078c480f7bfe42888349c7ead851b817afa76114eee3dd70b419ed2ef9a016a5",
    "kernel-mul_byte3": "db234d0ce738b14e3a9e72122c8e3226e2bc5b537a616783c622ea5d3ff5ee90",
    "kernel-mul_byte4": "b5ae026b23ea4084a8422597059a315351b52f368d38e27f35b409d6eb739f50",
    "kernel-mull_small": "ae2e6e12758e76a789c3ee86d6ba61f18be3001c70d4756437688e1b9c0069db",
    "kernel-mull_large": "953c8cd8bad7a828f0c0637c75d1d8500df0badfd2489b901b9e2eb96d670746",
    "kernel-br_taken": "9409edb98c8ec3615ddf8242fb3142b92f3c28fc249a77f2ae67d76d4ba19664",
    "kernel-br_nottaken": "51b51b80e48f17484ed9f15693253121f5be949cbdbfb29053c77d5c1b9459a7",
    "kernel-br_alternate": "0e38434f070713bf6267ab1ab1bf9f25d3e140369b3459d244db2edb37407484",
    "kernel-loaduse0": "6359ff4feb2a1dcee0ee96fc38d236f9b186c0e864028c7491de32fc90a83d97",
    "kernel-loaduse1": "ab7947c9e7745b2b3d4f3e7008a32d97bb2d2b306b49979c22b7b500d645d326",
    "kernel-loaduse2": "f804c8e0c073e0c911c8345b41e79ec6d9e49a5d9cbefca00af337f99976f6c2",
    "kernel-loaduse3": "4318edb491c685e5fe87799962da1977cd4f08f27a56856f8c5380ed271cc577",
    "kernel-loaduse4": "4bfeb39aa3cc965b3202d2cb86a97b4325c22a130bc2757dd4a91dc25046e025",
    "kernel-stld_same": "784ca6e19084915c4aea13f9d343251206c563161a57cd2451e0b14536dfd045",
    "kernel-stld_diff": "0df98153adec68b830f2e256faf5d415e8923b64553db0dc24523bc222885fa8",
    "kernel-flagdep0": "33665dc121f01fd775635d183b47a999e9bb8813d6a75f714f306bdf5539342d",
    "kernel-flagdep1": "b56481d0ba11bb91d21cadfda0ed7e4375ffc8397269c6652ccb1d53fd62586f",
    "kernel-flagdep2": "364af5547ab389e22abca7d926a8ebe898ccd30a6baf1eebcfb2e9fad8165c15",
    "kernel-flagdep3": "c301743681d6282708b657e0772236bb41134efbe09d6b4402324ab927437c4a",
    "kernel-condexec1": "7bbc5c82ffe544b8d71994354fe7ceddaf87dd336eb099bcef505f7e319deec6",
    "kernel-condexec3": "98e4499d63ab9f56fbacd61526e9048e52aab7cca653b12ab82397c9fbfe5b40",
    "kernel-condexec6": "cc13dd45e176b7c11325b2b80beda08650435cb844be167eb3906badd11bcfe6",
    "kernel-stride1": "afb74dc50defec57789f6f97b32167eb439cc76b00cf0194d3ebd95afdfcd2d0",
    "kernel-stride2": "3696ed9a14168560eef52253e1414d48ff32addb51ed10647bf63ee4b7c2f2b7",
    "kernel-stride8": "c4601cbbb04d2cf76d67b25b451c00093bea6075665ffb54710349463d7b51c6",
    "kernel-stride32": "7a4357fcfffa61f5684bdc6d2018b3cca968aad673b9f99fb54630db45afe5cc",
    "kernel-mix_alu_mem": "ae8649c87f18dfc2a765af2fa3e81a425554421e92a8bbf187fc9e6a8bd2bd74",
    "kernel-mix_mul_mem": "9c45c995398d82e51662e75e08a576e423748528b4bb6fca34e5e377588a2de4",
    "kernel-mix_shift": "b16a069e34dc543cb6859f017fd1867f61b8cdbdb4aeaabda7e765ecc40a284e",
    "kernel-alu_dep16": "966f1e9a4a7e21f7a9551943659a78d6ffab71df0bdb5f4a8f62e37075216bfb",
    "kernel-chase": "8f1454e0ec0a90149302f85d530d33eadfcf0fc1d03c0586ae55f2bef1a56012",
    "speclike-lz_compress": "1cda6a98a7d48d9ecc047e80bdede4be479466a364fb6e9ce16222924d18c30a",
    "speclike-pointer_chase": "6209657eeb9b83549947bd00d253202be8d0e17b666b29a73a8434501f7c8cd7",
    "speclike-parser_loop": "048ce16064308724f25162bf86c5e05f229604dc50cbf14248729b10353b3c76",
    "gen0-16x32x64-s1-arm": "51e77528f8de57183c479aaa887c0a43ea1ac9cfcfd0d13dfa955b6f08181e39",
    "gen0-16x32x64-s1-ppc": "a5f5167f389d957630e6efcd5535c7f19b255d2a23bdb1536eba57d44f3ebe67",
    "gen0-16x32x64-s2-arm": "9d3921ee54dfa9d58f599e25c2787f181fd2dd99bb2258c4464d0b4cd6213369",
    "gen0-16x32x64-s2-ppc": "707acfe87ab28913ee719cbcf9e2bcbfdca01ee1dffbbe30a58162a34b2cb1ce",
    "gen0-16x32x64-s3-arm": "6011b1b22a6b16ca7c87776fcaa23315ddee24e5a3c8acddfcddb9cfca34c822",
    "gen0-16x32x64-s3-ppc": "b8d4e7394944a2615468c0943d2a753186a154e03b9757c1ff56945712404dc8",
    "gen0-16x32x64-s4-arm": "bf4a2fc696cde8da68424482e84ba2943849cb52e611ac18799069789f39fa2d",
    "gen0-16x32x64-s4-ppc": "dfa62c2c4698676d8c0d664706155e8d8e308271b9a93c28336b836b0c383e9e",
    "gen0-16x32x64-s5-arm": "976711b21d35b8a0f939f98db749d76e0cba55e196c25e9f7228e930197a08a0",
    "gen0-16x32x64-s5-ppc": "d96ef3bb6763e8a209f829eca4e4c9f3496f4086ecf1d96146e7c874738bbd3a",
    "gen0-16x32x64-s6-arm": "5de9c758548a583183be4d1d963fbff1ce74c964d9197a2b42e288797310006b",
    "gen0-16x32x64-s6-ppc": "6ebd436b58dfb7bdd0a3ade0c1cf0a29ecca8112362c5b4ef61400ba48f69288",
    "gen0-16x32x64-s7-arm": "0f6af78e5e0650b2e07f79affe4e19ca8fbc384a8028b84acd140b717b40a689",
    "gen0-16x32x64-s7-ppc": "0d410e8538503c8d1ead58c91d00ea230823ca0067425ccd37c84a46bf13f862",
    "gen0-16x32x64-s8-arm": "e382a817e35562fe8c89759478db938e730e1d71de645165a5f31848ccfc8248",
    "gen0-16x32x64-s8-ppc": "024d12770119124e4d2655fc314b0af4c7c20759f9fe9a8f3612e43a126b2d7b",
    "gen0-16x32x64-s9-arm": "b5a0f701c38b08a122cef65a6197ad5c047d95e3b9a840970bacc1bfc0c1d8ad",
    "gen0-16x32x64-s9-ppc": "cec81a805794321275cd2ba63657ddcc9b9fd673262844e5d04710dd7fc989f6",
    "gen0-16x32x64-s10-arm": "8b444aeab669649f002433ac5389a7c683bc525f5a041d4585a5934d3d97f572",
    "gen0-16x32x64-s10-ppc": "e5e8d829cfdecde3ace8c3400276d4ecb37585e3d287468f85413774291fdfb0",
    "gen0-12x16x32-s1-arm": "cd07d7abd89279151cf7eba552ceca93225afe1b978fc1cb9d7e3d7b9ec9cb44",
    "gen0-12x16x32-s1-ppc": "66f410d9634c9e1987302724732cd7ef684d6834918e61de764e2fb5e74b7d1f",
    "gen0-12x16x32-s2-arm": "08ace7920ac512a81bf914e4f51461393dd0f6eecb7ab3cd8ce5928b007c8861",
    "gen0-12x16x32-s2-ppc": "84ff4d8c7ebfbfb26f75ac16cd57030be69269e6a10b5078671f35f6a4496261",
    "gen0-12x16x32-s3-arm": "a6ec3bc8987531e81cb86c66fff3322ad5d91e434048a16a1202d08310449427",
    "gen0-12x16x32-s3-ppc": "aceafa2c1a3ba815861c82297a902b7cde016dbd68a593c11d5de7d5190bc4da",
    "gen0-12x16x32-s4-arm": "28ca7b7b8cbf7d4b829030d69ad82c6475f713ecdd4658737369dfa420b9336e",
    "gen0-12x16x32-s4-ppc": "bb8fec8187f4c0f1224823513d7266773ab36aebe453adf53a8226a3a8c1e864",
    "gen0-12x16x32-s5-arm": "8bd1fa636792f1f3457a35867a28881a1ffa454abc8bf3ae1ead9932516d2680",
    "gen0-12x16x32-s5-ppc": "a0fd83b85514c07c8652a34c76a4be13d4546d377820b7ad48476317812c6972",
    "gen0-12x16x32-s6-arm": "fb5d033c5ce161cc89ee721812c2f43c911ba07265e7907614e75be06f55adf5",
    "gen0-12x16x32-s6-ppc": "27247c00d0d738b5b2c66671c6aaf0ce48b13d72583079b3ba62e0b4e600b147",
    "gen0-12x16x32-s7-arm": "cddeff92cb76b51a55990ed5b4a3a2577527c05a551d7db1d46f9339cc482591",
    "gen0-12x16x32-s7-ppc": "5ddc69632093ccfa31bc89f9a12d15fa446a12600050169a2edbce138e2ad89e",
    "gen0-12x16x32-s8-arm": "5c170d12a62ede78fd7b5b08d6a3aeb2fc285301bf0bfe5347a9b0325aeeb923",
    "gen0-12x16x32-s8-ppc": "59e7d427c6e762908f289e0a8246e3fff5f4898575ce03d4deb1f88d941a9953",
    "gen0-12x16x32-s9-arm": "679463196c0ff3534b8b37dd86535d7889b8626ec2f7faabe3c0f537169686dc",
    "gen0-12x16x32-s9-ppc": "9a9dcb3f3b40e13aa6c7f465e1832517fa5883f2bc45489fb9c4daa84c4c7d99",
    "gen0-12x16x32-s10-arm": "23e1cd261efc0834943c69d81630d5e88b3e9c65c06be58d7dd145bd564c92af",
    "gen0-12x16x32-s10-ppc": "57b47d268959a24a142c7f814e9bb4229931ed99da5c28be4433d901b2a403fa",
    "gen1-16x32x64-s1-arm": "c1474bde63670bc42efc3a15451b9f5869589e28d3a455c1faeef80860430fbf",
    "gen1-16x32x64-s1-ppc": "5e36cf01f9186ed184f033428b33497dbef3a47495f7857c69c71409e978e357",
    "gen1-16x32x64-s2-arm": "4beeb18e5d4b02020596eb31cf53c0a6fc25c4d44797bd14c89cecc4a84dcd98",
    "gen1-16x32x64-s2-ppc": "f729e91d36c8127e3cad254dd3b2364d3732c6184725c9b0a1ad4388ee15fd2a",
    "gen1-16x32x64-s3-arm": "cbefb4cd97e4651d8a46bd442f74ee4fc5345963fc1bba7539e3fd673d8cd9db",
    "gen1-16x32x64-s3-ppc": "9bdeca63dc4ac8dc44803862dd7ddcf3918ae4bf556abd4bfadd475c6f53df9a",
    "gen1-16x32x64-s4-arm": "384a5fec3de6b4d9d281b4997673f6530f20393608e6193570d1e9afa5db732e",
    "gen1-16x32x64-s4-ppc": "f07558f07cdc725c708e4da6aa87328bcfe38f901cd9d501c0b0d98bc29e1baf",
    "gen1-16x32x64-s5-arm": "1f68b8f91fa88508003505a704ee4d73b579485367bc3998e8e01c3d5aef36fc",
    "gen1-16x32x64-s5-ppc": "9c100e5a7bb75f1f8b8123aaac512f3c7eeb67b72f7b48153fc367b9a2f83bf2",
    "gen1-16x32x64-s6-arm": "170f3b9a5f36367199cd8a92c45b4cba6c2cf638c90be06468cdf313ab089208",
    "gen1-16x32x64-s6-ppc": "326e5395e0b7f53a06656875f606efe45bf5fc38d9d6004068636771a41b8117",
    "gen1-16x32x64-s7-arm": "39d455de615e60b6d15661e17e864981530dd4f2f361eb9f2d0bc329a85d4be9",
    "gen1-16x32x64-s7-ppc": "2fdb063a7d0c23a223b22d890c34918022d0f7e8c6e276ee20289f3830207260",
    "gen1-16x32x64-s8-arm": "49f7e10c260e85863701c3b837eafe10a1e04b0516d73d7fbecc064184c06eaf",
    "gen1-16x32x64-s8-ppc": "69857881084caff923974cd9d2b000d0b5eafe21e4dc3c90f21d4c0b663ea72b",
    "gen1-16x32x64-s9-arm": "448c5ebe38de08f7a0e015af49fc9bd292547107f02d69d662691c9a0c28fb53",
    "gen1-16x32x64-s9-ppc": "9652a70c79a9f851d935743b195a68d809c817a7491691b3ad65c7dec3bce769",
    "gen1-16x32x64-s10-arm": "32a41c99d35950fe902d293a0bab05a2515e9274da1a70c5015743d09ea011b2",
    "gen1-16x32x64-s10-ppc": "45148c0c63555c565a2d16c61637442e9bf6b04e0623635b45f18a38f08a124b",
    "gen1-12x16x32-s1-arm": "da7ee1b6bfa3da505f041da79030f129eda9074797b799f6673f466d8e6f784f",
    "gen1-12x16x32-s1-ppc": "99cd42f7ab496d8e92fb8929529a8855ce56682c5ccee049cb8018db30de9492",
    "gen1-12x16x32-s2-arm": "475b6f2d2b4bfcc9c204099a611dbf2f7cf5a2c9c0fe76dd2c0e74e9c74606fb",
    "gen1-12x16x32-s2-ppc": "ddae3f0c1874908afb3c50014cbee6c38535d417ddceb1e18259c3ac91a041bc",
    "gen1-12x16x32-s3-arm": "8df8f14f2dd41cdb7ed0d09a26064e22aa641a9d7dafe088a5d427c133a2adbd",
    "gen1-12x16x32-s3-ppc": "785434e65a50e57d8b9509956f9d1047818a987770c326d20cc0171747d2464b",
    "gen1-12x16x32-s4-arm": "c2fe28bc1b72cb2c7b11311e20fe64fe83bb709d08a638d386595d129be2ad53",
    "gen1-12x16x32-s4-ppc": "60a117988b5881fc3c10a2c2af9dabb3c03d047bded595c8dc11369803630da6",
    "gen1-12x16x32-s5-arm": "9b86edec66ea658d8d0b71cb3dc409a3bbe7417d3248fc4585a4f279bc16777f",
    "gen1-12x16x32-s5-ppc": "1eac628062f5f12437ab8b9c009361ea9a9c3fbbbef1c66a06ab2e2d65fb4615",
    "gen1-12x16x32-s6-arm": "95b94d8a5571b54389654e4a8a0b998399c8b925eb513693e3d2606233118c3b",
    "gen1-12x16x32-s6-ppc": "893a97e5fdf0cac450c7e9620f72bb6ef038a2e93d52ec113a1a503ebc435e46",
    "gen1-12x16x32-s7-arm": "f69dfdfe49fb1a9ca92d1c56aa63c6ae47c07966d446552f763e160e8a57e89c",
    "gen1-12x16x32-s7-ppc": "313de463442b9f638a3487b7782dacf8ac239525c1b8f7ae16e1bd2bc1282a09",
    "gen1-12x16x32-s8-arm": "2be6bde4fa31237113503e7445d7835724a4835d9bde6f2ecec8b8b4981e133b",
    "gen1-12x16x32-s8-ppc": "52c1af2c8251459ed40b607e2e34aa5d31931df10c0c13db8009f934b7e70792",
    "gen1-12x16x32-s9-arm": "d4c47f8f5665d6be4411a43d66d677398ad054e9b83b53224ced9a62c5eb3eae",
    "gen1-12x16x32-s9-ppc": "a53db8208f08b133c183837420da42d523b2cf42187c3a496c12059be0ffd5d2",
    "gen1-12x16x32-s10-arm": "b4f1486d7514f1e4ca24495864b700dff884c76ab31cee6803156587fd6abd84",
    "gen1-12x16x32-s10-ppc": "c6b0fc64047b78f80a28f118af8cfe5238487324c4ac186e318d0e52e9ab7a67",
    "gen2-16x32x64-s1-arm": "7d244b12a08ec58061633cc5e0130132705cec2628652088cd0ced68f19d1ac7",
    "gen2-16x32x64-s1-ppc": "af236d24891d1661551e6c23820b7b0f90faa30dacbb676e71c887f059d173f3",
    "gen2-16x32x64-s2-arm": "97f532add1cd0e910f82adb32c192196c6fe9b638c3cb293f5e961472566fc9b",
    "gen2-16x32x64-s2-ppc": "65b88851956a460ff55cb674f07effb3a1456b78e92c3865202c8b8630c71b26",
    "gen2-16x32x64-s3-arm": "146b2c5343031364845a82a90788b87fc3a5f94508bc0ca5abe07969c13554ba",
    "gen2-16x32x64-s3-ppc": "1fdf7b38daf4f0104c74d1a412b035cdee6990e0748b15f358150890e3b1b911",
    "gen2-16x32x64-s4-arm": "cc5651740f1bf6aab294c95e366b31eb11b2e0f0d70469380bd08ae677082264",
    "gen2-16x32x64-s4-ppc": "ea6c7826d5517b0dcd7d3de15a74248efea28ccb91aef02e831642c7d7395cd3",
    "gen2-16x32x64-s5-arm": "d20a8707cf2e0196526e13d757b69e2cac4993c331439f9ba4a74975387b443b",
    "gen2-16x32x64-s5-ppc": "a163a5007cebfd0941bffb2e0cf33d4d4129fbfdb99cecc969c8bae6b9bde1e6",
    "gen2-16x32x64-s6-arm": "72284f749bb4f385b86727df13ea41845d0a704b2c961b5e2421cc5d56650da3",
    "gen2-16x32x64-s6-ppc": "6158c6b220329b6c1480eb0c6ce0b1d87e1b826dc97d83695fdcfc5c0dde55a5",
    "gen2-16x32x64-s7-arm": "66e6e3c8c2aaa21f070ffa354c516e1b772a10e360f1518ed27bf4199d897e86",
    "gen2-16x32x64-s7-ppc": "e2f13d661ee4cca7532e8e77c9b110b6736e398fb49833a719f2cdcc9318c089",
    "gen2-16x32x64-s8-arm": "f6b2a2dbcf68fc3e2dfa26c6e55924659c41e94187b5315626975fbcd14f0484",
    "gen2-16x32x64-s8-ppc": "02d1e988edcc64b65620304c696388692d0e518324e08106dd2e505f698dddf4",
    "gen2-16x32x64-s9-arm": "bb753c96bf78f40bfedfa72800a2d6c824e25e2c18aea7460f69bc2b458e9381",
    "gen2-16x32x64-s9-ppc": "135c200f45861e73e52675177d4918593c3d331b156e17b8cde2d92c84edc735",
    "gen2-16x32x64-s10-arm": "60444f123116e6840690527b806789ca3eb9ca6ac9126850eb2c69491bf00d90",
    "gen2-16x32x64-s10-ppc": "7bdd5abe5ab8aaa407b6294800a3af600ffc97ef68e5282a3e5f34189d790ef1",
    "gen2-12x16x32-s1-arm": "221bbf752968c055c0961a4c7378e8751dfe5ee765112622ea17e970b0496768",
    "gen2-12x16x32-s1-ppc": "005429901ce137dbeec84da6c306b09f8526240a1592da5cedbba43252466577",
    "gen2-12x16x32-s2-arm": "ab3e1eaeec2e363c14e6de70a055b15d16d86be3cd6aed9450f77c74c53424f2",
    "gen2-12x16x32-s2-ppc": "25ea876483750d3031082a2fcd1c360c3aeb288de5cb20e567acb5f9664bb757",
    "gen2-12x16x32-s3-arm": "28de569f46ff8555a79de79152d77e02ec63ef8eb307036219f0a20efa945da5",
    "gen2-12x16x32-s3-ppc": "f334d486f3c15ef569a6b9ead50c2687eba19cb6fd62a89ed757dce68d301395",
    "gen2-12x16x32-s4-arm": "89ebb51205ffd02e98c4553b8e4f14185bfe01472a2809a45dca4c0b9738732b",
    "gen2-12x16x32-s4-ppc": "ce8bec9f63b6822b5b120f4fc60d6207152981867955e2309f0d81d7763c3e2a",
    "gen2-12x16x32-s5-arm": "e56afd4d07f608e53e147f0cf3aba4cfeaadef61662d50b25a53131189e762d8",
    "gen2-12x16x32-s5-ppc": "ae5eb1c0d1b445194c719daa1c54efdf2f5790e460d7150141b862dce8b01736",
    "gen2-12x16x32-s6-arm": "7844456d7834ee07ba15bf199c13771310754ccc42169cf9ae3f3b2cc0bdac9e",
    "gen2-12x16x32-s6-ppc": "35b1e0b68029486270a84fd3671c9db58df519f8c63451036f2f517d02184d48",
    "gen2-12x16x32-s7-arm": "db5f2a9674db6d044be255509380174eaff921315951637d20088c1d743e188e",
    "gen2-12x16x32-s7-ppc": "2461bcaa06f9e7223649e18448a425a0ffbadf61806ae9de27011d09b516c54e",
    "gen2-12x16x32-s8-arm": "e94886fbf0b0befa9ca8e501f9d6657b5ca2f48c3c02d292132ed304ddd0b2a0",
    "gen2-12x16x32-s8-ppc": "3dee311dee4f8ed6d96611c8d95e68dc006beec01d6e83a1d5d67951d2d94774",
    "gen2-12x16x32-s9-arm": "fac15f479023ea5b1bddd5dce19b512cb00403289c20f143ab511355b52c939f",
    "gen2-12x16x32-s9-ppc": "03e595b1c67cd837bacaa5d9b3e887d57d04a47e474d20959b6b82daaf0a8d2e",
    "gen2-12x16x32-s10-arm": "299c39e8736b7515da8c476af5bf417da23298387c4b228456e5611b452d9ae6",
    "gen2-12x16x32-s10-ppc": "290001a9fb1f45c5f855571c34c75ee85a5e3bd5c969fc3994f2c422ecd6e195",
}

_SOURCES = list(sources())


def test_every_source_is_pinned():
    assert sorted(name for name, _, _ in _SOURCES) == sorted(PINS)


@pytest.mark.parametrize("name,isa,source", _SOURCES, ids=[s[0] for s in _SOURCES])
def test_program_bytes_unchanged(name, isa, source):
    assert digest(isa, source) == PINS[name]


if __name__ == "__main__":
    print("PINS: Dict[str, str] = {")
    for name, isa, source in sources():
        print(f'    "{name}": "{digest(isa, source)}",')
    print("}")
