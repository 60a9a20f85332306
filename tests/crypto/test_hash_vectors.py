"""Golden vectors and definitional properties for the hash layer.

Everything the library hashes, expands, MACs or signs with a one-time
key goes through ``repro.crypto.hashing`` / ``prg`` / ``prf`` /
``merkle`` / ``lamport`` / ``winternitz``.  Those modules work from
cached SHA-256 midstates; the *definitions* stay

    hash_domain(d, *f) = SHA-256(tagged_tuple(d, f))
    prf(k, d, *f)      = HMAC-SHA256(k, tagged_tuple(d, f))

``_GOLDEN`` was captured at 5222f8c — the last commit whose
``hash_domain`` was literally ``hashlib.sha256(tagged_tuple(...))`` —
by running ``_vectors()`` below against that tree (the ``__main__``
block prints the literal; ``_vectors`` uses only names that commit
has).  A value that moves here moves a key, a signature, a Merkle root
or a trace fingerprint somewhere downstream.
"""

import functools
import hashlib
import hmac
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.crypto import lamport, winternitz
from repro.crypto.hashing import (
    domain_hasher,
    domain_walker,
    hash_chain,
    hash_domain,
    hash_each,
    hash_to_int,
)
from repro.crypto.merkle import (
    MerkleTree,
    root_from_multiproof,
    root_from_proof,
)
from repro.crypto.prf import SubsetPRF, prf, prf_int
from repro.crypto.prg import PRG
from repro.utils.serialization import encode_uint, tagged_tuple

_F127 = bytes(range(127))
_F128 = bytes(range(128))
_F70K = bytes(i % 253 for i in range(70_000))
_SEED = bytes(range(1, 33))
_MESSAGE = b"golden message \x00\xff"
_KEYS = {n: bytes((7 * i + n) % 256 for i in range(n)) for n in (0, 64, 65, 200)}
_GREEK = "δομή/§2.2"


def _fp(*blobs: bytes) -> str:
    """Fingerprint of a long output: plain SHA-256 of the concatenation."""
    return hashlib.sha256(b"".join(blobs)).hexdigest()


def _vectors():
    """Every pinned output, by name, as a hex string."""
    out = {}

    # hash_domain: empty tuple, both sides of the one-byte length table,
    # a field longer than two varint bytes, a non-ASCII domain.
    field_cases = {
        "empty": (),
        "one-empty": (b"",),
        "x": (b"x",),
        "digests": (_SEED, _SEED[::-1]),
        "lengths": (b"", _F127, _F128, _F70K),
        "six": tuple(bytes((i,)) * i for i in range(6)),
    }
    for name, fields in field_cases.items():
        out[f"hash_domain/{name}"] = hash_domain("repro/vectors", *fields).hex()
        out[f"hash_domain-greek/{name}"] = hash_domain(_GREEK, *fields).hex()
    out["hash_to_int/lengths"] = "%x" % hash_to_int(
        "repro/vectors", *field_cases["lengths"]
    )

    out["hash_chain/empty"] = hash_chain("repro/vectors", []).hex()
    out["hash_chain/three"] = hash_chain(
        "repro/vectors", [_SEED, b"", _F128]
    ).hex()
    out["hash_chain/generator"] = hash_chain(
        _GREEK, (bytes((i,)) * 32 for i in range(40))
    ).hex()

    # HMAC keys: empty, exactly one block, one byte over (hashed first),
    # far over.
    for size, key in _KEYS.items():
        out[f"prf/key{size}/empty"] = prf(key, "repro/vectors").hex()
        out[f"prf/key{size}/lengths"] = prf(
            key, "repro/vectors", b"", _F127, _F128, _F70K
        ).hex()
        out[f"prf/key{size}/greek"] = prf(key, _GREEK, _SEED).hex()
        out[f"prf_int/key{size}"] = ",".join(
            "%x" % prf_int(key, "repro/vectors", upper, _SEED, encode_uint(3))
            for upper in (1, 2, 3, 1000, 1 << 256)
        )
    out["subset_prf/n100k7"] = ",".join(
        str(member)
        for party in (0, 3, 99)
        for member in SubsetPRF(_SEED, 100, 7).subset(party)
    )

    for domain in ("prg", _GREEK):
        prg = PRG(_SEED, domain=domain)
        for index in (0, 1, 127, 128, 16_384, 1 << 40):
            out[f"prg-{domain}/block{index}"] = prg.block(index).hex()
        out[f"prg-{domain}/expand100"] = _fp(prg.expand(100))
        out[f"prg-{domain}/expand0"] = prg.expand(0).hex()
    out["prg/empty-seed/block5"] = PRG(b"").block(5).hex()

    for width in (0, 1, 2, 5, 13, 64):
        leaves = [bytes((i,)) * (i % 40) for i in range(width)]
        tree = MerkleTree(leaves)
        out[f"merkle{width}/root"] = tree.root.hex()
        if not width:
            continue
        proof = tree.prove(width // 3)
        out[f"merkle{width}/prove"] = _fp(proof.encode())
        assert root_from_proof(leaves[width // 3], proof) == tree.root
        indices = sorted({0, width // 3, width // 2, width - 1})
        opening = tree.prove_many(indices)
        out[f"merkle{width}/prove_many"] = _fp(opening.encode())
        assert root_from_multiproof(
            [leaves[i] for i in indices], opening
        ) == tree.root

    # One-time signatures: the default width, the gateway's (64), and
    # widths that are not a whole number of bytes.
    for bits in (128, 64, 13, 1):
        vk, sk = lamport.keygen_from_seed(_SEED, bits)
        out[f"lamport{bits}/vk"] = _fp(vk.encode())
        out[f"lamport{bits}/sk"] = _fp(*(z + o for z, o in sk.rows))
        out[f"lamport{bits}/oblivious"] = _fp(
            lamport.oblivious_keygen(_SEED, bits).encode()
        )
        for name, message in (("m", _MESSAGE), ("empty", b"")):
            signature = lamport.sign(sk, message)
            out[f"lamport{bits}/sign-{name}"] = _fp(signature.encode())
            assert lamport.verify(vk, message, signature)
    vk, sk = lamport.keygen_from_seed(_SEED, 300)  # two digest blocks
    out["lamport300/sign"] = _fp(lamport.sign(sk, _MESSAGE).encode())
    out["lamport300/vk"] = _fp(vk.encode())

    for bits, w in ((128, 4), (64, 4), (128, 8), (12, 3), (7, 1), (35, 5)):
        vk, sk = winternitz.keygen_from_seed(_SEED, bits, w)
        tag = f"wots{bits}w{w}"
        out[f"{tag}/vk"] = _fp(vk.encode())
        out[f"{tag}/sk"] = _fp(*sk.starts)
        out[f"{tag}/oblivious"] = _fp(
            winternitz.oblivious_keygen(_SEED, bits, w).encode()
        )
        for name, message in (("m", _MESSAGE), ("empty", b"")):
            signature = winternitz.sign(sk, message)
            out[f"{tag}/sign-{name}"] = _fp(signature.encode())
            assert winternitz.verify(vk, message, signature)
    vk, sk = winternitz.keygen_from_seed(_SEED, 300, 6)
    out["wots300w6/sign"] = _fp(winternitz.sign(sk, _MESSAGE).encode())
    return out


_GOLDEN = {
    'hash_domain/empty':
        'ab2c4f5852eac8d514ed977338b661fbfc7471590167df5102121997f7bf0ec1',
    'hash_domain-greek/empty':
        '8c9d9da4cfc21b8beb85837697e8b3ea7b009223b36e8184f0d382f86325abc7',
    'hash_domain/one-empty':
        'd6f50b905f0981eae605cce2acc292a9485addfa3e7b76788e126e23a26eee09',
    'hash_domain-greek/one-empty':
        'df65ee80730753c74ead40df64f249d3a4afb1e5dfce7978ee75d9719d8fd776',
    'hash_domain/x':
        '53e0b3cc3e67e96fa546db559b033a980c70431df7a44f377b87228d8430026c',
    'hash_domain-greek/x':
        '73806832bfcf44f5ad7c497521e01f51bedfa7981c4c66ae3452906ccd5413c3',
    'hash_domain/digests':
        '19ec0ad4c8b66ca97c45d98e29175c292f907bfefe8f20de8c842ac93fcb860a',
    'hash_domain-greek/digests':
        'e969b1b32e77133c03e1d70c6c4dd27609a5446bd56c0e6d1e0508a47e3cce71',
    'hash_domain/lengths':
        '451f49820bc11d49fde249dc8b9b19c66e65bc42e1938ed65ffb5d29cdc1b95d',
    'hash_domain-greek/lengths':
        '7e1dd994c0ad2c53f8231d49c485ddd5ff1a03d7bd407ec7e9335781cf55873a',
    'hash_domain/six':
        '16549f1b181ef81831126da9ff4b39a5d641a85aa8fa8c483128da3306ccad35',
    'hash_domain-greek/six':
        '7c2056c12f076f05db4ec52079d600dfc600a7d459240b98eb5e14234ba17e8d',
    'hash_to_int/lengths':
        '451f49820bc11d49fde249dc8b9b19c66e65bc42e1938ed65ffb5d29cdc1b95d',
    'hash_chain/empty':
        '0f165bafa060beaf85f9e96e5732d7be198d7068856a830c5a2a175a266ef669',
    'hash_chain/three':
        '1a848bdac32aceb61e4075a0fa203583fafaef3145d417af67a4c6cb53c10fda',
    'hash_chain/generator':
        '8d7b6d84f5e3897683c9296eeb1d42248dc45d0cc762d0c9da8517cc155a3eb9',
    'prf/key0/empty':
        'a2e59328867e3ca20ce4f9f94fb5b1c301f47608b24ceb61ae0124c0a584fc6a',
    'prf/key0/lengths':
        '4df62673e8b4b669c5561c2e0e781eeab0889a77a2634d77ef6a92433b8dc914',
    'prf/key0/greek':
        '4e62f311699fc8be6f824f292ffbd27a286d8e97d66e8c6e2d1e0b5abd0b2e08',
    'prf_int/key0':
        '0,1,2,91,f07078c41076a5405652cced99b48f389c661d83725aa55fc1b7379cac5bddb9',
    'prf/key64/empty':
        'e4919b2eab4f1f0d8b7dd5de23aefeae6e0694c02dbe906ed7fafa0ad179efbe',
    'prf/key64/lengths':
        'd2e04fdf733a38c6b4c0785c4b351677a4cf06697d0b2330c2988e719e3d6bdb',
    'prf/key64/greek':
        '942b70b631b91888b39fffed3e0ab33d5e46ecdce12d9e8c15984e27cf4e1235',
    'prf_int/key64':
        '0,0,0,268,2f3533eb3e835fb9b46c30b5f40e6140cd9474f004950316ea75d3a587993470',
    'prf/key65/empty':
        '06c70b670ff4b610b963293326c46998554789f23e74f675ca03c5b69725a32d',
    'prf/key65/lengths':
        'e6021b24babf0b1915cb61f4ca13ac6ea6b9d93557fd46e2bbd93ee52aa25176',
    'prf/key65/greek':
        'b38ce04fe95674f3def48081f1dde637f28e1e606570467a8919e586a40c8fb5',
    'prf_int/key65':
        '0,1,2,e9,88aa98f57136248e768052cc891f0fa3345a4c1e30b0c056d8a300d72915ed81',
    'prf/key200/empty':
        '7d2398eb3e4ee2eefe9996dae00ad4117c9b923af9b702ef4e9ef11dbfb720e7',
    'prf/key200/lengths':
        '63f16d54bb44ebaf2b1f973518a8aae0fe627dbe70f864f230a27e195f6f3197',
    'prf/key200/greek':
        'f44f5ed8852ca6cd59df325ee7fd6d8b2b69d12978eff5c0140b288c93121419',
    'prf_int/key200':
        '0,1,0,5b,4e3fb04853d418dc7090aec5424b2dd0a918e333d9ceb0a6a939a8cab64247d3',
    'subset_prf/n100k7':
        '3,4,11,32,54,71,83,6,17,21,22,51,70,95,20,28,31,32,38,49,76',
    'prg-prg/block0':
        '3e1532b6ff73824e4241742539daa687fe56d6065d8d8e2c61d61af945a911de',
    'prg-prg/block1':
        '011ddba6f7f0c0c860e6c3c438956fb8eb5d3c74e68794c84e65ba79cdc111ab',
    'prg-prg/block127':
        '721ef09195362deb669cfa5ec6f88df39a7208eb803ed914d6b3567857711e74',
    'prg-prg/block128':
        '491959ba3499871c227e9715b923720705c2ed1a5e38c440f4bf5f03cf653697',
    'prg-prg/block16384':
        'b20b70b1e09a175bde41d53709e3027bf0bcd274d8e955b96c90733efae544a4',
    'prg-prg/block1099511627776':
        '5f401020fb586c4690df10d8fe7574b969533d4660039933863d630bca912a42',
    'prg-prg/expand100':
        'eb909dabbb05f2ec86908a6aee1153680b30e6d0e08c93dc7826c9aede7125f7',
    'prg-prg/expand0':
        '',
    'prg-δομή/§2.2/block0':
        '374c324efc01068372384986b38df3889e767f8ac0f670ac1c2cbeb76f0785e8',
    'prg-δομή/§2.2/block1':
        'bffe8598e6e5ad5d99c6914d843bd268737b11a5864f91d31edee81661e6b0d4',
    'prg-δομή/§2.2/block127':
        '37c4ae539d9d7e32eb77c6f073d7db9ed49201825ad67ae1ca781c801fc84ac0',
    'prg-δομή/§2.2/block128':
        '90a4db26f43b5f473bf7c497282de925bf15651314fcecc308e5b967b9bcc30b',
    'prg-δομή/§2.2/block16384':
        '8f37c34805fbe7f0ecdfac1e5555b293d80cd835feb7cde1910896803393d47e',
    'prg-δομή/§2.2/block1099511627776':
        'd532afba35bf20c3492f3bb86dd36c01a345c2d5bf495373841287b45c35ac1a',
    'prg-δομή/§2.2/expand100':
        'cc879653aebcaa6825ccd4aeb2d874f55d070bd5b205130e5e4f32bf90ec80b1',
    'prg-δομή/§2.2/expand0':
        '',
    'prg/empty-seed/block5':
        '9bb589f2ecc70b468f33402dc2c7ed1455fcff39a413555935db69d00eb21059',
    'merkle0/root':
        'd611d30ac2a36597775398696b09a4966f7316cf93ef7a258c300513e118d9e3',
    'merkle1/root':
        '6d383f9fa2cc76e2b051f2bc4e21253ef77f3cb422301bae81f57c22d01ebdc7',
    'merkle1/prove':
        '96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7',
    'merkle1/prove_many':
        'a0454a24dd4bc418448ca19320519ea3fe544fa1a910868b62ca210614f119f8',
    'merkle2/root':
        'f92e6f637581443408cdc20083575b51417fd22a1677c90589bcc70448589e53',
    'merkle2/prove':
        '717cd1c858b200faf1143e149da2cc2d0fbefe4acdd8aec67619c73321849846',
    'merkle2/prove_many':
        '1750995cf4e97269eb7779abbd83d433e95c64e17a75b0836a96031fe30aaf05',
    'merkle5/root':
        'c9b1e5e9b3c551ff9a15dc2f23455832b850d76d543bb01988b56bbaad84bff8',
    'merkle5/prove':
        '15e4d87e2c37d1c1701173a933bfa906d9197d918d5cccbea573273bb794949e',
    'merkle5/prove_many':
        '5d11c6b7c24cf05d51f9819b6a0a3b5891be2e3da77faf451f21499dbb771a85',
    'merkle13/root':
        'a7207a87e689a566be8eb596b9fea2d28ea1a1f16e56bb1f41877ba900495546',
    'merkle13/prove':
        '93df8d82640a7e52221a7d2e94d57c5a0df846266e39c323316df04ca70cb3eb',
    'merkle13/prove_many':
        'e8a467686c8e5a0b7d8115a9eab19ad59c4fa89badfea872aafa7e5a87c34551',
    'merkle64/root':
        'd3461a2d99697d683d7beb990c08077566603659a63d3786e916240baa5febe6',
    'merkle64/prove':
        '5446125124538981249d96172ea20b7a7bcb0280e16d84b640d5d3e161cbb9c0',
    'merkle64/prove_many':
        '92e2e2cf2a8323a8effd5af372f00901b3d067284f2604b1d45bc2e799975825',
    'lamport128/vk':
        'f0cce2a5f374ef6c6c6aa2dea0a5c3a79cb3efbf7942ae3cfe7757bc3713231b',
    'lamport128/sk':
        '1e99c622558ff71a89a3b024795dbda549b110807999c69f5a98408aa9bf5ef0',
    'lamport128/oblivious':
        '9478aa5b2ac0b922af2c77f123eeb08f3457413afbeeb90863ffac90edb53207',
    'lamport128/sign-m':
        '6e79f204f3d2422d6f18e0850af36503382e0562037b9f3292eed43a6b639ad3',
    'lamport128/sign-empty':
        'e7ec29583bb93936d4a9e5358886492ae4b606172fbb28719e775f523fab271a',
    'lamport64/vk':
        '6143dad7b2331390ef6866bdee062a5acac0a814057087e091a5a7386e983cd1',
    'lamport64/sk':
        '4932507ff7f80282a2e1590a627d3ff7a9fe1ad99a7c9365055b3942f6b8599b',
    'lamport64/oblivious':
        '8555f91ff61ec988b55d48895895fdb9a5833e1d963b0929f49a09fa0ed95c6e',
    'lamport64/sign-m':
        'e27e6185e8d4ef104253d23939f0f0c17f99e6303dcb080b2e0d1590cb3c073d',
    'lamport64/sign-empty':
        '598b1fada5d142d853785ff046c26175d48a757d4532b4d6017735316462072f',
    'lamport13/vk':
        'd018b3a14caa634c25b46cf7059ed61359d30f37dd3df509cd9729bbf1dd7b89',
    'lamport13/sk':
        '841dce8691a39ec39d516b062c4acb992f326b3515568a71dd10473e666692d0',
    'lamport13/oblivious':
        '7a7f3b018dfb87ebc58e7ad01e1dffa088b317b9616d93d6e41340dd779c8bf7',
    'lamport13/sign-m':
        'f14ef86c970f04f75fd39221ef0c0ed2fff8e544b7e6104b7af86203ac2331ac',
    'lamport13/sign-empty':
        '432e5ff349b5e8b39ae6c394909961c1b497b899427c70cfc03e664417ca7f4f',
    'lamport1/vk':
        'e0a582b4bed66333acc5ff1eb58ed75c47aaab7723ff07ccf4d99f9499d3e703',
    'lamport1/sk':
        '0861d2360d3bfda9fd8c24296dbbc7be9b20cfe2470ebf1a6df46fa9ee325cef',
    'lamport1/oblivious':
        'd693a082f352a5f74d8949ad793ccaa36aaec0ac9f11eccc78b218292230e48f',
    'lamport1/sign-m':
        'f0b2dba5e24f2a47a060b40511c33d1e5d3fbd14d47da78a6546b4e76ad0d93f',
    'lamport1/sign-empty':
        'f0b2dba5e24f2a47a060b40511c33d1e5d3fbd14d47da78a6546b4e76ad0d93f',
    'lamport300/sign':
        'a1b4bb919f50c70f0a8b68699398ec825cf98484ff9a2d06d0e44975404c52df',
    'lamport300/vk':
        '8108b3b2417a495be2e8ec92ad5b266981718cc835a0a5227775390af0320883',
    'wots128w4/vk':
        'ae5d35601546938a393fc7d05727b99228cce4b0fdb13bfdf407e3dee3728acd',
    'wots128w4/sk':
        'c0a7da162264a191f9d19025cf0afb37f1e1b317d3fd60f38d73b3b5136c7c29',
    'wots128w4/oblivious':
        'dfd345bf3bb050dd72ccdab2b628200e91141f17f80e9f67bb14c6800304d9ad',
    'wots128w4/sign-m':
        '2d07113d88d46e32feb7daf6e5bf91aeab56823b4a65774a7199461606bfa522',
    'wots128w4/sign-empty':
        '79ad53ef8bdbd8e0e315746da414575da42420e7fa27ffc4ec8e2f7bda8c5361',
    'wots64w4/vk':
        '9c2a7eab56e7dba9a2b518f7fac82b4c1c52f6488991d3913e2394f9b10aaf34',
    'wots64w4/sk':
        'b68b389e856125dd7a76ed6586badadbc47f3848f0c0398b0ff20b6ab2645754',
    'wots64w4/oblivious':
        '6f7a03d98231dc69de55d2381a34ec7a155e9db28911dbd3271f65bde2819883',
    'wots64w4/sign-m':
        '3b8770efb523d8d5a0d7c8e74a4ceea0de4413ed3b0b14858d94b0e453356e4c',
    'wots64w4/sign-empty':
        '5460bf85617ba0c226a5dbe9737c03791743839508b3948ccc473dc0e1315409',
    'wots128w8/vk':
        'cf8d5d63a64e2147b577dc02837635a0ae4ffdd5029dc4abd96a778c6beaf2df',
    'wots128w8/sk':
        'b68b389e856125dd7a76ed6586badadbc47f3848f0c0398b0ff20b6ab2645754',
    'wots128w8/oblivious':
        '6f7a03d98231dc69de55d2381a34ec7a155e9db28911dbd3271f65bde2819883',
    'wots128w8/sign-m':
        '2fbaf3aed00e82a98439e8acb3450f281bfaa5a2a96551fae8ad6464d4e527cb',
    'wots128w8/sign-empty':
        'c567649d71cae63eeeeeb3231895b3dcce2d612a82f6f9c31f34d8c0fd5412d2',
    'wots12w3/vk':
        '3cefa7c1cd24ca46af49d4a14e713cb5b22fbe4a22190f92f4feb17cccded435',
    'wots12w3/sk':
        '1f5d1d78ba83c6ce126705f74be4e42eaa7e41a4a874c4d9e67ad0bdf113a305',
    'wots12w3/oblivious':
        'e5aa6396990fe0e4e052a3476cd62700d130e8452a71d87f84d34b76bbb8111a',
    'wots12w3/sign-m':
        '4bec149f4089a9dfcc9f66e8c5b1df3ac59ca9776741494f2409f76c20ef8868',
    'wots12w3/sign-empty':
        '54d6e49b8c834915905568fa6ccf2cd822d703d9c9ee85e3b0f06ede835c7b6a',
    'wots7w1/vk':
        '4561d9232163f4bf657115188552ad51f803daf9ef08d4ed510a2b7e89b3fb49',
    'wots7w1/sk':
        '447071c479bafbd559962915eaacabb623c051e111d58ede70cf711774b50de3',
    'wots7w1/oblivious':
        '04b52939ca2a5302da0c9b3279acba4804adf010a1971c9e70bef76c0c32abed',
    'wots7w1/sign-m':
        '7f16cfbe9077b0f51179e82e769b2243c514f0af58b3bba2bc1306cceb6c2926',
    'wots7w1/sign-empty':
        'deadb6799323ce8eae7dccb744270d7543756be8222ca7d7c7d91de321c6a8a8',
    'wots35w5/vk':
        '06304f8b04ad78a4e876a1600524d78ea2c7add8824977ed45f72b3f00d50253',
    'wots35w5/sk':
        '553a333676c4ba7fb5de1c4c3643a039107772a40d85ef6f21333dafe50f8716',
    'wots35w5/oblivious':
        'b5ac1fba16c1fd2a3e79626f5e126db6c7d6335a0d642115ec2ebb27f6d520e9',
    'wots35w5/sign-m':
        '432dad617a571278738a8f163d252dc1b925309988abd6cb92c92fa17e2b192c',
    'wots35w5/sign-empty':
        '387c8f73c435f0198d48f21019c3ccb6ef4b25dc82a046ddcd6be7cfc98922ff',
    'wots300w6/sign':
        '054b9c54f870583c42bd6ca34bb755d028421d4b1ff06879cbe720db7820e2ca',
}


_vectors_once = functools.lru_cache(maxsize=None)(_vectors)


def test_the_capture_covers_every_vector():
    assert sorted(_vectors_once()) == sorted(_GOLDEN)


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_vector(name):
    assert _vectors_once()[name] == _GOLDEN[name]


# -- the definitions -----------------------------------------------------------

_domains = st.sampled_from(["d", "merkle/node", "lamport/public", _GREEK, ""])
_fields = st.lists(st.binary(max_size=200), max_size=5).map(tuple)
_EDGE_FIELDS = [
    (),
    (b"",),
    (_F127,),
    (_F128,),
    (_F70K,),
    (b"", _F127, _F128, _F70K, b""),
]


def _reference_hash(domain, fields):
    return hashlib.sha256(tagged_tuple(domain, fields)).digest()


def _reference_prf(key, domain, fields):
    return hmac.digest(key, tagged_tuple(domain, fields), "sha256")


class TestDefinitions:
    @given(_domains, _fields)
    def test_hash_domain_is_sha256_of_the_tagged_tuple(self, domain, fields):
        assert hash_domain(domain, *fields) == _reference_hash(domain, fields)

    @pytest.mark.parametrize("fields", _EDGE_FIELDS)
    @pytest.mark.parametrize("domain", ["d", _GREEK])
    def test_hash_domain_edge_lengths(self, domain, fields):
        assert hash_domain(domain, *fields) == _reference_hash(domain, fields)

    @given(st.binary(max_size=300), _domains, _fields)
    def test_prf_is_hmac_of_the_tagged_tuple(self, key, domain, fields):
        assert prf(key, domain, *fields) == _reference_prf(key, domain, fields)

    @pytest.mark.parametrize("fields", _EDGE_FIELDS)
    @pytest.mark.parametrize("size", sorted(_KEYS))
    def test_prf_edge_keys_and_lengths(self, size, fields):
        key = _KEYS[size]
        assert prf(key, _GREEK, *fields) == _reference_prf(key, _GREEK, fields)

    def test_a_long_key_and_its_digest_are_the_same_hmac_key(self):
        # RFC 2104: a key over the block size is replaced by its hash —
        # the one place two distinct keys share midstates by definition.
        long_key = _KEYS[200]
        assert prf(long_key, "d", b"x") == prf(
            hashlib.sha256(long_key).digest(), "d", b"x"
        )

    @given(st.binary(max_size=80), _domains,
           st.integers(min_value=0, max_value=1 << 70))
    def test_prg_block_is_the_hash_of_seed_and_index(self, seed, domain, index):
        assert PRG(seed, domain=domain).block(index) == _reference_hash(
            domain, (seed, encode_uint(index))
        )

    @given(st.lists(st.binary(max_size=40), max_size=6))
    def test_hash_chain_folds_hash_domain(self, digests):
        running = _reference_hash("d", (b"chain-init",))
        for digest in digests:
            running = _reference_hash("d", (running, digest))
        assert hash_chain("d", iter(digests)) == running


    @given(_domains, _fields, st.integers(min_value=0, max_value=5))
    def test_a_domain_hasher_is_hash_domain_with_a_prefix(
        self, domain, fields, split
    ):
        prefix, rest = fields[:split], fields[split:]
        finish = domain_hasher(domain, *prefix, trailing=len(rest))
        assert finish(*rest) == _reference_hash(domain, fields)
        assert finish(*rest) == _reference_hash(domain, fields)  # reusable

    def test_a_domain_hasher_refuses_the_wrong_number_of_fields(self):
        with pytest.raises(ValueError):
            domain_hasher("d", b"p", trailing=2)(b"only one")
        with pytest.raises(TypeError):
            domain_hasher("d", b"p")(b"one", b"too many")


# -- the batch door and the chain walker --------------------------------------

#: Fields on both sides of a digest's width and of the one-byte length
#: prefix, each width alone and mixed in one batch.
_BATCH_WIDTHS = (0, 31, 32, 33, 127, 128, 200)
_batch_fields = st.lists(
    st.one_of(
        *(st.binary(min_size=w, max_size=w) for w in _BATCH_WIDTHS),
        st.binary(max_size=300),
    ),
    max_size=12,
)


class TestBatchDoor:
    @given(_domains, st.lists(st.binary(max_size=80), max_size=3), _batch_fields)
    def test_hash_each_is_hash_domain_field_for_field(
        self, domain, prefix, fields
    ):
        assert hash_each(domain, prefix, fields) == [
            _reference_hash(domain, (*prefix, field)) for field in fields
        ]

    @pytest.mark.parametrize("width", _BATCH_WIDTHS)
    def test_one_width_and_every_width_in_one_batch(self, width):
        same = [bytes((i,)) * width for i in range(5)]
        mixed = [bytes((i,)) * w for i, w in enumerate(_BATCH_WIDTHS * 2)]
        for fields in (same, mixed, mixed[::-1], same + mixed + same):
            assert hash_each("d", (_SEED,), fields) == [
                hash_domain("d", _SEED, field) for field in fields
            ]
            assert hash_each("d", (), iter(fields)) == [
                hash_domain("d", field) for field in fields
            ]

    def test_an_empty_batch_and_a_field_that_is_not_bytes(self):
        assert hash_each("d", (_SEED,), []) == []
        with pytest.raises(TypeError):
            hash_each("d", (), [b"ok", 7])
        with pytest.raises(TypeError):
            hash_each("d", (), [b"ok", "text"])

    @pytest.mark.parametrize(
        "low, high", [(0, 130), (16_380, 16_388)], ids=["127/128", "16383/16384"]
    )
    def test_prg_blocks_across_the_varint_boundaries(self, low, high):
        """A PRG's tabled counters change width at 128 and at 16 384; the
        blocks on either side are the definition's."""
        prg = PRG(_SEED, domain="d")
        blocks = prg.blocks(high)
        assert len(blocks) == high
        for index in range(low, high):
            expected = _reference_hash("d", (_SEED, encode_uint(index)))
            assert blocks[index] == prg.block(index) == expected
        assert prg.expand(32 * high - 5) == b"".join(blocks)[:-5]

    @given(_domains, st.lists(st.binary(max_size=40), max_size=2),
           st.sampled_from([b"", bytes(31), bytes(range(32)), bytes(33)]),
           st.integers(min_value=0, max_value=6))
    def test_a_walk_is_repeated_hash_domain(self, domain, prefix, start, times):
        value = start
        for _ in range(times):
            value = _reference_hash(domain, (*prefix, value))
        assert domain_walker(domain, *prefix)(start, times) == value

    @pytest.mark.parametrize("chunk_index", [0, 5, 127, 128, 300])
    def test_a_wots_chain_is_repeated_hash_domain(self, chunk_index):
        value = start = hash_domain("seed", encode_uint(chunk_index))
        for steps in range(17):
            assert winternitz._chain(start, steps, chunk_index) == value
            value = hash_domain("wots/chain", encode_uint(chunk_index), value)


# -- midstates are scratch, never part of a value -------------------------------


class _Holder:
    """Stands in for a checkpointed party: it keeps the generators it
    has already drawn from."""

    def __init__(self):
        self.prg = PRG(_SEED, domain="holder")
        self.recipients = SubsetPRF(_SEED, 100, 7)
        self.drawn = (self.prg.block(3), self.recipients.subset(5))


class TestMidstatesAreNotValues:
    def test_a_used_prg_and_subset_prf_holder_pickles(self):
        holder = _Holder()
        clone = pickle.loads(pickle.dumps(holder))
        assert clone.drawn == holder.drawn
        assert clone.prg.block(3) == holder.prg.block(3)
        assert clone.prg.expand(70) == holder.prg.expand(70)
        assert clone.recipients.subset(9) == holder.recipients.subset(9)
        assert vars(clone.prg) == vars(holder.prg) == {
            "_seed": _SEED, "_domain": "holder",
        }

    def test_one_time_keys_pickle_and_compare(self):
        for module in (lamport, winternitz):
            pair = module.keygen_from_seed(_SEED, 16)
            assert pickle.loads(pickle.dumps(pair)) == pair
            assert module.keygen_from_seed(_SEED, 16) == pair

    def test_threads_hashing_through_one_midstate_agree(self):
        """More threads than cores on one domain midstate, one hasher
        closure, one HMAC key and one PRG seed, with the interpreter
        switching every few bytecodes: a state mutated in place instead
        of copied would show up as a wrong digest."""
        shared = domain_hasher("threads", _SEED)
        prg = PRG(_SEED, domain="threads")
        inputs = [bytes((i,)) * (1 + i % 70) for i in range(200)]
        expected = [
            (
                _reference_hash("threads", (item, _F128)),
                _reference_hash("threads", (_SEED, item)),
                _reference_prf(_SEED, "threads", (item,)),
                _reference_hash("threads", (_SEED, encode_uint(len(item)))),
            )
            for item in inputs
        ]
        failures = []

        def worker(offset):
            for turn in range(len(inputs)):
                index = (turn + offset) % len(inputs)
                item = inputs[index]
                got = (
                    hash_domain("threads", item, _F128),
                    shared(item),
                    prf(_SEED, "threads", item),
                    prg.block(len(item)),
                )
                if got != expected[index]:
                    failures.append((offset, index))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(17 * k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


# -- message digests of the one-time signatures --------------------------------


def _reference_bits(domain, message, message_bits):
    """The bit-by-bit reading both OTS modules used at 5222f8c."""
    needed = (message_bits + 7) // 8
    stream = b""
    counter = 0
    while len(stream) < needed:
        stream += _reference_hash(domain, (encode_uint(counter), message))
        counter += 1
    bits = []
    for byte in stream[:needed]:
        for position in range(8):
            bits.append((byte >> (7 - position)) & 1)
    return bits[:message_bits]


def _reference_chunks(message, message_bits, w):
    bits = _reference_bits("wots/message", message, message_bits)
    message_chunks = message_bits // w
    chunks = [
        int("".join(str(b) for b in bits[i * w:(i + 1) * w]), 2)
        for i in range(message_chunks)
    ]
    max_checksum = message_chunks * ((1 << w) - 1)
    checksum_chunks = 1
    while (1 << (w * checksum_chunks)) <= max_checksum:
        checksum_chunks += 1
    checksum = sum(((1 << w) - 1) - c for c in chunks)
    tail = []
    for _ in range(checksum_chunks):
        tail.append(checksum & ((1 << w) - 1))
        checksum >>= w
    return chunks + tail


class TestMessageDigests:
    @given(st.binary(max_size=64), st.integers(min_value=1, max_value=600))
    def test_lamport_reveals_the_row_of_each_digest_bit(self, message, bits):
        rows = tuple(
            (bytes((0, i % 256, i // 256)), bytes((1, i % 256, i // 256)))
            for i in range(bits)
        )
        signature = lamport.sign(
            lamport.LamportSigningKey(message_bits=bits, rows=rows), message
        )
        expected = _reference_bits("lamport/message", message, bits)
        assert [p[0] for p in signature.preimages] == expected
        assert [p[1] + 256 * p[2] for p in signature.preimages] == list(
            range(bits)
        )

    @given(st.binary(max_size=64), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=80))
    def test_wots_chunks_match_the_bitwise_reading(self, message, w, count):
        bits = w * count
        assert winternitz._message_chunks(
            message, bits, w
        ) == _reference_chunks(message, bits, w)


if __name__ == "__main__":
    print("_GOLDEN = {")
    for key, value in _vectors().items():
        print(f"    {key!r}:\n        {value!r},")
    print("}")
