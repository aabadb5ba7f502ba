"""Golden table of the constructions, computed in process.

Each row pins the sha256 of the compact JSON of one construction: every
canonical Clifford system C_1..C_16 (with the minus class for m = 0 mod 4
and the tilde systems of m = 4, 8), the representations by skew complex
structures of C_2..C_16, the maximal tangent-field systems of a range of
spheres, and the left and right multiplications by every quaternion and
octonion unit.  A refactor of the block constructions must leave every
matrix as it is.  After an intended change, print the new table with
`PYTHONPATH=src python tests/test_construction_golden.py` and review the
difference before pasting it.
"""

import hashlib
import json

import pytest

from cliffsys.algebras import OCTONION_LABELS, left_mult, right_mult
from cliffsys.clifford import MINUS, build, system_to_json, tilde, to_representation
from cliffsys.exactmat import matrix_to_json
from cliffsys.spheres import max_vector_fields

FIELD_ORDERS = (2, 4, 6, 8, 16, 24, 32, 64, 96, 128, 384)


def _representation(m):
    rep = to_representation(build(m))
    return {"delta": rep.delta, "matrices": [matrix_to_json(e) for e in rep.matrices]}


def _fields(n):
    system = max_vector_fields(n)
    return {"n": system.n, "sigma": system.sigma,
            "structures": [matrix_to_json(j) for j in system.structures]}


def constructions():
    """(id, thunk) per row; each thunk returns the JSON value to hash."""
    for m in range(1, 17):
        yield f"gen-{m}", lambda m=m: system_to_json(build(m))
        if m % 4 == 0:
            yield f"gen-{m}-minus", lambda m=m: system_to_json(build(m, MINUS))
    for m in (4, 8):
        yield f"tilde-{m}", lambda m=m: system_to_json(tilde(m))
    for m in range(2, 17):
        yield f"rep-{m}", lambda m=m: _representation(m)
    for n in FIELD_ORDERS:
        yield f"fields-{n}", lambda n=n: _fields(n)
    for dim in (4, 8):
        for u in OCTONION_LABELS[:dim]:
            yield f"right-{u}-{dim}", lambda u=u, dim=dim: matrix_to_json(right_mult(u, dim))
            yield f"left-{u}-{dim}", lambda u=u, dim=dim: matrix_to_json(left_mult(u, dim))


def digest(thunk):
    text = json.dumps(thunk(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# id: sha256 of the compact JSON
GOLDEN = {
    'gen-1': 'f0688e5b1885764ed8e11ae88bce8d06354bdce41dc89c9999e686ec478ba2ea',
    'gen-2': '672a069823285937cc082a15851f4878166afae6c8dc5400738e9564ca19b421',
    'gen-3': '8b6b301b4a4b4ffc4a0ef1d5afb99d4c4ec8aa6db9ff251f88c0e221a5f59663',
    'gen-4': '1f22c1896de765a339ea48111dc77ed5b5f14f8cea14299148a960b9d7fe59cc',
    'gen-4-minus': 'eda55cd6d88856380d96c0eef4cf8691bf5d2aa68f1bfe96b5850f086cdaa5f4',
    'gen-5': '076524ca3547b578f23a6c872ab4a21e908734e81ff849a7c4797c42ea11cdf3',
    'gen-6': 'cec6639f4e084b42c0e58dbd36612ca1d3d58c9e514a7093a2c7e7412b2d150e',
    'gen-7': '325707b12cc9649337bf68c781ccfc9958c01f32c1aa4e888e71628ef59addd4',
    'gen-8': '3711b99f51ae3ed3e90f3e91d5c83fe16884d29beeb728a9715913c64a49b790',
    'gen-8-minus': '8e172c1f789ab3e401a042c41fedfbf67c8210d6f24a4b446803fb39f603c0ea',
    'gen-9': 'a40f7dd559a4219442af221c3c99ce9877c99097bb4ddf82008eb7135230aac3',
    'gen-10': '083ceda03d198a7f7107482a22c177b504a0977d7db305992be24b8a4b5dc613',
    'gen-11': '1c3fdf7da82654e6695a9acc89d162c13c65157a9f85690e372d85f6b02e60f2',
    'gen-12': '034716642b75002d26bf045680285c9d2350c01129c168362a3c9ad339f20dff',
    'gen-12-minus': '33ead30be92427cba521c87e8484959df64b42d40e12ae8bf91e81b547e57adf',
    'gen-13': 'b12cade2ff8523196a3fc07e2a4733b4fe5079b97f7c25fc8520c0d020514f95',
    'gen-14': '643e4916a63e67ea6abe2528f9f476e6be736c95b531cb1518df88d401d465a9',
    'gen-15': 'e4b42ab032ba5784afb18748f6678bfbfc418538f75dc21485540a4e987a5f82',
    'gen-16': '683a29fc90352b9eea22f7e3b25ecf114ca2b7b1b485070d2fc67942d22d184b',
    'gen-16-minus': 'db44bf76489b5d94fe292d2884fa53ec5823fbe2d57fe4f0809a52d811aaa919',
    'tilde-4': 'ae53c241c37665cad3b6d2e56f0fcfbf59b94ccef1297797ddb524fa11e9563b',
    'tilde-8': '2089fdb99c93447da26efccbf4aff121cf3fd907106e8c165b106524448c5e78',
    'rep-2': '1c85631ae47f197084a85c6b8c74cdfe6493a9182894876303b0c9f23053c310',
    'rep-3': '1f9ccae0203536782393e39a6d759ce1cbe044bdd4f4b42f1ddbdc4939e6634e',
    'rep-4': '1921cbad263e295b413658ea412e7bb0273d8be28deb409f39adf19a4413e6a2',
    'rep-5': '6a959f7185eadfb21e95d67b02438c8a9ae60974f7ff1d6520018f2365dd5bdc',
    'rep-6': 'b7ad0404e2571ed035d4b4abd1e760ce19d37018d94e8cbc1dc5ed21763a1a65',
    'rep-7': '62254141642fd58b29efe35a18cd18440ef48c4170db3d2f2434a4abdfc8f732',
    'rep-8': 'e9250300a0607aae7681a96d9b23c7a55da9e88a16ce598809696f0a18578af6',
    'rep-9': '6009caa65e630cbcf793eb01bb2e128f6a74389d5bdbadd2660d78701fea98ec',
    'rep-10': '23c01cc45ee126af730bc988749c21e6e7bcee08cdae8005c592d61a2ca50dc3',
    'rep-11': '5fca280413d7988e7682703c1ffcd5fdb3e6f3e8eaa6a818f51713e8b6c6fc7d',
    'rep-12': '241cc3a15a66642a565a30f15968e61efd7c822d7f0ed80a38899250097e742e',
    'rep-13': 'f71ac8bf236f3bc46a868334ecdede3bbc24e85b93bd51fccb0b3c4b9362c4db',
    'rep-14': '61b824dc656c4af9fb97cdd2d2da20c1641ffaa7a547eab3bb21f17f24d0de99',
    'rep-15': 'e31eb5f6d6792004d887726cde543b071ca72b304cec0dc1b582b706058bba16',
    'rep-16': '8132f3639af9ddb4f762a2423d16161a7b2249e145fd434765a806e6a5ce6b9a',
    'fields-2': '7f0b4ae9ecd765fff9bcf1f91c1e2122966d2760814fa866e610c638660db761',
    'fields-4': '20fc4965636186fb2edb3a4902024c499301b3a016e85896e59ba25f91ec6334',
    'fields-6': '2eadcbfab8e4111093cba640a6fd122b3446bab38524894a2e8d0d2eeae5b7a8',
    'fields-8': '9a1bf88d8cdfef12c152cbf11264c92e6225a4ca15691963ad84b627a5247fc7',
    'fields-16': '17d019a845d47bbbe04bcbf63e455ea57420db7389885d13eb8c6762942dd54a',
    'fields-24': '066b65b07aaf32dece1b8514641c2c428c37a23975a44fe8572fa29b95be46c2',
    'fields-32': '47856b8985766ee43e2337592ef9a93d110513d150de977306336cbedf51eef0',
    'fields-64': '0a15805a968176865db6f2a4b3ddddad0daeee3fb1bbdf71ad339d5a7521238c',
    'fields-96': '758329e50b8900c28fc681854caffee097c75463d6bc9e9554f27dfd23afcc4d',
    'fields-128': 'd7f4121885a5698903c2b0e86b06ae60702d56e86a5e36f908b945b80d50288a',
    'fields-384': '343a8ed73354d48f9cc6429773cacbfe4755ac56707108c2194778ce7a55d8ac',
    'right-1-4': 'f98eee18b1c3211a7302f81507453648e329976df79561513236c5400770d3c7',
    'left-1-4': 'f98eee18b1c3211a7302f81507453648e329976df79561513236c5400770d3c7',
    'right-i-4': '075412437c5096813ebecb94702b342ec5d54ccfc8c5fb0bc3dd69c7a2daa8ef',
    'left-i-4': '69864e9537738e2b3d78f63f88b07ae4d21024664784c9c22006d1a7005fd002',
    'right-j-4': '0b2169165959ea7f6080e706ac8a4fa9691d5cab95cc8fb5fe45d5d95d552a8a',
    'left-j-4': '1a9b9712b7f2fea23d303e09b5c86799f58c3ddfd10a25aeac2a92654f2ae97c',
    'right-k-4': '78779e07cf25ce5a634d07a353c2700b66ea16d11a340c14aa20d829af8dead7',
    'left-k-4': '429a2d2e8cf43f34364241b82d08ac348c7cb8285990cd6b8566247843e951ec',
    'right-1-8': 'c4de3d4151d5f152b1215d021c16f3301a1aa525b66c70eacde8751091610ba8',
    'left-1-8': 'c4de3d4151d5f152b1215d021c16f3301a1aa525b66c70eacde8751091610ba8',
    'right-i-8': '17eae3b67ac5d3429363c201d6ff29f6e7a77b0781a50d9e51482ffa758c0900',
    'left-i-8': '5ac12010533c5b16339883ad43159fdabe423997691dafb43d297e99f8af9278',
    'right-j-8': '8e3fbc01aaab08b26c3bdac32985e8b94aa0056a67d2073d8a9247841f614c4c',
    'left-j-8': '8a9ec3abd7509701b2531bb2f202b427f7683634de6401d4c01ff6ce75e7270b',
    'right-k-8': 'a26176e7825342a1ce7dcce597527f01c82e9a263f9d423f574a6a7bbf921c5f',
    'left-k-8': 'fb53aa11420ad5a4d7d347c5630badefd28cf3deb19c22b237710b33a666d117',
    'right-e-8': 'e2796eebc23302c0f696ae41c2a84c70e1f08f52ae45ea3a6c17f9a8c06fa0dc',
    'left-e-8': '9e277da61d758fa51d2035881e70359c7f58b1aaaba6336f3c80b2176e982d07',
    'right-f-8': 'd7fd48f01fde207990e7776d7ce85d28ab8a9540fb869e62eb45d72c2075def4',
    'left-f-8': '2d6cb07ffa563abbab3c9719990f6477cd67fef3ab57b8fffbf3913305dfb19c',
    'right-g-8': 'c5520de51a6c865e90de6bcd761982eaf08d75c60d045d462a6f739326bddc59',
    'left-g-8': '00751e67e594ad64b075ec5ef5bd51e1f1fed4f3b34f74083e13ee1251e9d79a',
    'right-h-8': 'c71b9649c61c0eeb1b18bf9cea362d8ff6c63d2ad5b4451de19e86d42a0a0e54',
    'left-h-8': '6b28d04933f6339e824daaa3af5e23a778c6c902704ce407be19e2f54a6ed420',
}


@pytest.mark.parametrize("name, thunk", [pytest.param(*row, id=row[0]) for row in constructions()])
def test_construction_matches_the_golden_table(name, thunk):
    assert digest(thunk) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, thunk in constructions():
        print(f"    {name!r}: {digest(thunk)!r},")
    print("}")
